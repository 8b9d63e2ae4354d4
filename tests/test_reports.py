import csv
import io

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from multibeta import reports

# one cell of each type the CSV writers meet, and a few they do not
SCALARS = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_), st.integers(-10 ** 20, 10 ** 20),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.floats(), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(0, 255).map(np.uint8),
    st.text(max_size=8))
CELLS = st.recursive(
    SCALARS,
    lambda cells: st.one_of(st.lists(cells, max_size=3).map(tuple), st.lists(cells, max_size=3),
                            st.lists(st.floats(), max_size=3).map(np.asarray)),
    max_leaves=6)


def reference_csv(header, rows):
    """write_csv's bytes as fmt writes each cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([reports.fmt(cell) for cell in row])
    return buf.getvalue().encode()


class TestWriteCsv:
    @given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=6))
    def test_cells_are_written_as_fmt_writes_them(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        reports.write_csv(str(path), ["a", "b"], rows)
        assert path.read_bytes() == reference_csv(["a", "b"], rows)

    def test_index_tuples_and_mixed_columns(self, tmp_path):
        # carleson_cubes.csv's index tuples, and igbeta's p: "inf" or a number
        rows = [[2, (1, np.int64(3)), 0.25], ["inf", (), np.float64(-0.0)], [2.0, [True], None]]
        reports.write_csv(str(tmp_path / "t.csv"), ["level", "index", "value"], rows)
        assert (tmp_path / "t.csv").read_text() == (
            "level,index,value\n2,1;3,0.25\ninf,,-0.0\n2.0,true,\n")
