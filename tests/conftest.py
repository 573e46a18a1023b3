import pytest

from genutil import first_use_fan_body
from mockfan import formats
from mockfan.fans import Fan


@pytest.fixture(autouse=True, scope="session")
def every_fan_writes_as_in_first_use_order():
    """Every fan the tests build whose rays are its 1-dim cells, all but those
    graded wrong on purpose, writes the same lines with its rays numbered by
    position, as `formats._fan_body` numbers them, and in first-use order."""
    of_cells = Fan._of_cells

    def checked(*args):
        fan = of_cells(*args)
        n = len(fan.rays)
        if [cell for cell in fan.cells if cell[0] == 1] == [(1, 1 << n - 1 - p) for p in range(n)]:
            assert formats._fan_body(fan) == first_use_fan_body(fan)
        return fan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fan, "_of_cells", staticmethod(checked))
        yield
