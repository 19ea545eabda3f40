import csv
import functools
import io
import os
import re
import tracemalloc

import numpy as np
import pytest

from innerseries import ingest
from innerseries.ingest import (
    _CHUNK,
    TransformError,
    apply_transform,
    gen_bounded_walk,
    gen_lifted_latent,
    gen_sine,
    mix_two_sources,
    pca_embed,
    read_csv_trajectory,
    read_wav_trajectory,
    write_csv_trajectory,
    write_wav_trajectory,
)
from innerseries.model import Trajectory, WeightSeries
from innerseries.weights import read_csv_weights, write_csv_weights
from stage_references import bounded_walk_reference


class TestCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,x\n0,0\n0.5,1\n1.0,2\n")
        traj = read_csv_trajectory(p)
        assert traj.dim == 1
        assert traj.dt == 0.5
        np.testing.assert_array_equal(traj.samples[:, 0], [0, 1, 2])

    def test_nan_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,x\n0,0\n0.5,nan\n1.0,2\n")
        with pytest.raises(ValueError, match=r"row 3.*column 'x'"):
            read_csv_trajectory(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,x\n0,0\n0.5\n1.0,2\n")
        with pytest.raises(ValueError, match="row 3"):
            read_csv_trajectory(p)

    def test_non_uniform_timestamps(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,x\n0,0\n0.5,1\n1.6,2\n")
        with pytest.raises(ValueError, match="non-uniform"):
            read_csv_trajectory(p)

    def test_fixed_dt_no_time_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x,y\n0,1\n1,2\n2,3\n")
        traj = read_csv_trajectory(p, dt=0.25)
        assert traj.dim == 2 and traj.dt == 0.25

    def test_fixed_dt_with_time_column_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,x\n0,0\n0.5,1\n1.0,2\n")
        with pytest.raises(
            ValueError, match=r"column 't' sets dt; a fixed dt cannot also be given"
        ):
            read_csv_trajectory(p, dt=0.5)

    def test_time_steps_hold_no_column(self):
        # a column fed in _CHUNK blocks holds no n-long temporary: the peak
        # is a few blocks, where the column's steps alone take n * 8 bytes
        n = 100_000
        times = np.arange(n) * 0.25
        tracemalloc.start()
        try:
            steps = ingest._TimeSteps()
            for lo in range(0, n, ingest._CHUNK):
                steps.add(times[lo : lo + ingest._CHUNK])
            assert steps.step("a.csv") == 0.25
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * ingest._CHUNK * 8

    def test_time_steps_in_blocks_match_one_column(self):
        # the least and greatest step bound every deviation from the first,
        # so the block-wise check gives the step and the error that the
        # whole column's steps give, wherever the blocks are cut
        def one_column(times):
            if len(times) == 1:
                return "one data row"
            steps = np.diff(times)
            step = float(steps[0])
            if step <= 0:
                return "strictly increasing"
            if np.max(np.abs(steps - step)) > 1e-9 * step:
                return "non-uniform"
            return step

        def in_blocks(times, cuts):
            steps = ingest._TimeSteps()
            for lo, hi in zip(cuts, cuts[1:]):
                steps.add(times[lo:hi])
            try:
                return steps.step("a.csv")
            except ValueError as err:
                return next(m for m in ("one data row", "strictly increasing", "non-uniform") if m in str(err))

        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(3000):
            n = int(rng.integers(1, 12))
            times = rng.uniform(-5, 5) + np.arange(n) * rng.choice([0.1, 1 / 3.0, 2.0, -0.5])
            for at in rng.integers(0, n, rng.integers(0, 3)):
                times[at] += rng.choice([1e-12, 1e-9, 1e-7, -1e-7, 0.3]) * (1 + abs(times[at]))
            cuts = [0, *sorted(set(rng.integers(1, n + 1, rng.integers(0, 4)).tolist()) - {n}), n]
            want = one_column(times)
            assert in_blocks(times, cuts) == want, (times, cuts)
            seen.add(want if isinstance(want, str) else "ok")
        assert seen == {"one data row", "strictly increasing", "non-uniform", "ok"}

    def test_one_row_with_fixed_dt(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x,y\n0.5,1\n")
        traj = read_csv_trajectory(p, dt=0.25)
        np.testing.assert_array_equal(traj.samples, [[0.5, 1.0]])

    def test_roundtrip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        traj = Trajectory(rng.standard_normal((50, 3)), 1 / 3.0)
        p = tmp_path / "rt.csv"
        write_csv_trajectory(traj, p)
        back = read_csv_trajectory(p)
        np.testing.assert_array_equal(back.samples, traj.samples)

    @pytest.mark.parametrize("dim", [1, 6])
    def test_writer_bytes_match_csv_writer(self, tmp_path, dim):
        # reference: the row-at-a-time csv.writer the writer must reproduce
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((9000, dim)) * 10.0 ** rng.integers(-300, 300, (9000, dim))
        x[::5, 0] = -0.0
        names = ("a,b", *(f"x{i}" for i in range(1, dim)))
        for dt in (1 / 3.0, 2):
            traj = Trajectory(x, dt, names)
            ref = tmp_path / "ref.csv"
            with ref.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", *names])
                for k in range(traj.n_samples):
                    writer.writerow([repr(float(k * dt)), *(repr(float(v)) for v in x[k])])
            out = tmp_path / "out.csv"
            write_csv_trajectory(traj, out)
            assert out.read_bytes() == ref.read_bytes()
            back = read_csv_trajectory(out)
            np.testing.assert_array_equal(back.samples, x)
            assert back.channel_names == names and back.dt == float(dt)

    def test_quoted_number_accepted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text('t,x\n0,"1.5"\n1,2\n2,3\n')
        np.testing.assert_array_equal(read_csv_trajectory(p).samples[:, 0], [1.5, 2, 3])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x\n0,0\n1,#\n2,2\n", r"row 3, column 'x': not a number: '#'"),
            ("t,x\n0,0\n1,1\n2,inf\n", r"row 4, column 'x': non-finite value"),
            ("t,x\n", "no data rows"),
            ("t,x\n0,1\n", r"one data row, cannot infer dt from column 't'"),
            ("", "empty file, no header row"),
            ("\nt,x\n0,1\n1,2\n", "line 1 is blank; the header row must come first"),
            ("\n\n\n", "line 1 is blank; the header row must come first"),
            ("t,a,a\n0,1,2\n1,1,2\n", "column 'a' appears more than once in the header"),
            ("t,a,t\n0,1,0\n1,1,1\n", "column 't' appears more than once in the header"),
        ],
    )
    def test_rejected_file(self, tmp_path, text, message):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{message}"):
            read_csv_trajectory(p)

    @pytest.mark.parametrize("reader", [read_csv_trajectory, read_csv_weights])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"RIFF\x24\xf4\x01\x00WAVEfmt \x10\x00", "not UTF-8 text"),  # a WAV's first bytes
            (b"t,x,valid\n0,1,1\n1,\xf4,1\n", "row 3 is not UTF-8 text"),
            (b"t,x,valid\n0,1,1\n\n1,2,1\n\xff\xfe\n", "row 4 is not UTF-8 text"),  # after a blank
        ],
        ids=["header", "cell", "row"],
    )
    def test_bytes_not_utf8_named(self, tmp_path, reader, data, message):
        p = tmp_path / "a.csv"
        p.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}$"):
            reader(p)


# row counts about the _CHUNK block boundaries at which the writer cuts parts
WRITER_ROWS = [1, ingest._CHUNK - 1, ingest._CHUNK, 2 * ingest._CHUNK + 1, 5 * ingest._CHUNK + 7]


def _csv_writer_lines(header, dt, rows) -> list[str]:
    """The lines, without their CRLF, that a row-at-a-time csv.writer writes
    for the header and rows of time k * dt then each value's repr (an int
    cell as is)."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for k, row in enumerate(rows):
        cells = (repr(v) if isinstance(v, float) else int(v) for v in row)
        writer.writerow([repr(float(k * dt)), *cells])
    return out.getvalue().split("\r\n")[:-1]


@pytest.fixture(scope="module")
def writer_reference():
    """A column with -0.0 and exponents to +-300, valid flags, and the
    reference lines of a trajectory and a weight CSV of them at the largest
    row count."""
    n = WRITER_ROWS[-1]
    rng = np.random.default_rng(18)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[::5] = -0.0
    mask = rng.random(n) > 0.1
    traj_lines = _csv_writer_lines(["t", "a,b"], 1 / 3.0, zip(x.tolist()))
    weight_lines = _csv_writer_lines(["t", "w1", "valid"], 0.125, zip(x.tolist(), mask.tolist()))
    return x, mask, traj_lines, weight_lines


class TestForkedWriter:
    """The rows are cut into one part per usable CPU, each part after the
    first formatted by a forked child: the bytes must not depend on the
    number of parts, and a failed child must leave no process or file."""

    @pytest.mark.parametrize("rows", WRITER_ROWS)
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, writer_reference, cpus, rows):
        x, mask, traj_lines, weight_lines = writer_reference
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        out = tmp_path / "traj.csv"
        write_csv_trajectory(Trajectory(x[:rows, None], 1 / 3.0, ("a,b",)), out)
        assert out.read_bytes() == ("\r\n".join(traj_lines[: rows + 1]) + "\r\n").encode()
        out = tmp_path / "w.csv"
        write_csv_weights(WeightSeries(x[:rows, None], mask[:rows], dt=0.125), out)
        assert out.read_bytes() == ("\r\n".join(weight_lines[: rows + 1]) + "\r\n").encode()

    def test_one_part_starts_no_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 1)
        write_csv_trajectory(Trajectory(np.zeros((3 * ingest._CHUNK, 1)), 1.0), tmp_path / "a.csv")
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 4)
        write_csv_trajectory(Trajectory(np.zeros((ingest._CHUNK, 1)), 1.0), tmp_path / "b.csv")

    def test_failed_child_names_file_and_leaves_nothing(self, tmp_path, monkeypatch):
        # the children fail, and then this process's own part too: its own
        # error is raised then, but only once every child has ended
        write_rows = ingest._write_rows
        first_fails = False

        def failing(fh, dt, columns, lo, hi):
            if lo > 0 or first_fails:
                raise OSError("disk full")
            write_rows(fh, dt, columns, lo, hi)

        monkeypatch.setattr(ingest, "_write_rows", failing)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 3)
        out = tmp_path / "w.csv"
        w = WeightSeries(np.zeros((3 * ingest._CHUNK, 1)), np.ones(3 * ingest._CHUNK, bool))
        # the first child formats the second block: file rows _CHUNK + 2 on
        rows = f"rows {ingest._CHUNK + 2}-{2 * ingest._CHUNK + 1} "
        failed_child = pytest.raises(RuntimeError, match=rf"{re.escape(str(out))}: .*{rows}")
        own = pytest.raises(OSError, match="^disk full$")
        for first_fails, raised in (False, failed_child), (True, own):
            with raised:
                write_csv_weights(w, out)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert list(tmp_path.iterdir()) == [out]

    def test_writer_peak_memory_holds_no_column(self, monkeypatch):
        # no n-long time or flag array: the peak is one block's strings,
        # where the n-long time column alone would take n * 8 = 1.6 MB.  This
        # process formats the first of four parts; the children stop
        # tracing, which only this process's peak needs
        write_rows = ingest._write_rows

        def untraced_child(fh, dt, columns, lo, hi):
            if lo > 0:
                tracemalloc.stop()
            write_rows(fh, dt, columns, lo, hi)

        monkeypatch.setattr(ingest, "_write_rows", untraced_child)
        n = 200_000
        rng = np.random.default_rng(3)
        w = WeightSeries(rng.standard_normal((n, 2)), rng.random(n) > 0.1, dt=1 / 3.0)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 4)
        tracemalloc.start()
        try:
            write_csv_weights(w, os.devnull)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


def _reader_body(n, seed) -> tuple[list[str], np.ndarray]:
    """n body lines of t, x, y, with -0.0, exponents to +-300 and every
    fifth x cell quoted, and the (n, 3) table they hold."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    table[:, 0] = np.arange(n) / 4
    table[::7, 2] = -0.0
    cells = [[repr(v) for v in row] for row in table.tolist()]
    for row in cells[::5]:
        row[1] = f'"{row[1]}"'
    return [",".join(row) for row in cells], table


def _write_lines(path, lines, end="\r\n", final=True) -> None:
    """The lines as UTF-8, but each lone surrogate U+DC80..U+DCFF as the
    byte 0x80..0xFF it stands for, which is not UTF-8 there."""
    path.write_bytes((end.join(lines) + (end if final else "")).encode(errors="surrogateescape"))


class TestForkedReader:
    """A body is cut after line feeds into one part per usable CPU: this
    process parses the first part while a forked child parses each other
    one, each into a part file, and the rows go from there straight into
    the returned arrays.  The arrays must be bit-identical to a one-part
    read, a fault must be reported as the one-part read reports it, and no
    child may be left.  A file whose lines end in a lone \r has no line
    feed to cut after, so it is one part at any CPU count."""

    @pytest.fixture
    def small_parts(self, monkeypatch):
        # parts of at least 64 bytes, reads of 5 bytes and blocks of 3 rows,
        # so that a small file is cut in several places, line ends fall
        # between reads and each part is copied out in several blocks
        monkeypatch.setattr(ingest, "_PART_BYTES", 64)
        monkeypatch.setattr(ingest, "_BLOCK", 5)
        monkeypatch.setattr(ingest, "_CHUNK", 3)

    @pytest.fixture
    def no_cell_parse(self, monkeypatch):
        # the parts must hold the table: the per-cell parse would read any
        # file to the same arrays, and so hide a part read wrongly
        def fail(path, header, out):
            raise AssertionError("read cell by cell")

        monkeypatch.setattr(ingest, "_parse_cells", fail)

    @pytest.fixture
    def forks(self, monkeypatch):
        """A list that gains an item each time this process forks."""
        calls = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        return calls

    @staticmethod
    def read(monkeypatch, reader, path, cpus):
        """reader(path) with cpus usable CPUs; after it returns or raises,
        no child is left."""
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        try:
            return reader(path)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def assert_holds(traj, table, names=("x", "y")):
        """traj is the table's columns after the time column, with dt 0.25."""
        assert traj.channel_names == names and traj.dt == 0.25
        assert traj.samples.shape == table[:, 1:].shape
        assert traj.samples.tobytes() == table[:, 1:].tobytes()

    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_arrays_match_one_part(
        self, tmp_path, monkeypatch, small_parts, no_cell_parse, forks, cpus, end, final
    ):
        lines, table = _reader_body(40, 0)
        p = tmp_path / "a.csv"
        _write_lines(p, ['t,"a,b",y', *lines], end, final)
        traj = self.read(monkeypatch, read_csv_trajectory, p, cpus)
        assert len(forks) == (0 if end == "\r" else cpus - 1)
        self.assert_holds(traj, table, ("a,b", "y"))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_blank_lines_at_and_next_to_a_cut(
        self, tmp_path, monkeypatch, small_parts, no_cell_parse, forks, cpus, end
    ):
        # a blank line or two after every row, so some fall on a cut and
        # some just before or after one
        lines, table = _reader_body(12, 1)
        p = tmp_path / "a.csv"
        for at in range(len(lines) + 1):
            for blanks in ([""], ["", ""]):
                _write_lines(p, ["t,x,y", *lines[:at], *blanks, *lines[at:]], end)
                forks.clear()
                traj = self.read(monkeypatch, read_csv_trajectory, p, cpus)
                assert len(forks) == (0 if end == "\r" else cpus - 1)
                self.assert_holds(traj, table)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_quoted_line_end_across_a_cut(self, tmp_path, monkeypatch, small_parts, forks, cpus):
        # a quoted cell may hold a line end, and "1.5\r\n" is still a number
        # to both parses; where such a cell spans a cut, the per-cell parse
        # reads the file instead, to the same table
        lines, table = _reader_body(12, 2)
        p = tmp_path / "a.csv"
        for at in range(len(lines)):
            t, x, y = lines[at].split(",")
            held = [*lines[:at], f'{t},{x},"{y}\r\n"', *lines[at + 1 :]]
            _write_lines(p, ["t,x,y", *held])
            forks.clear()
            traj = self.read(monkeypatch, read_csv_trajectory, p, cpus)
            assert len(forks) == cpus - 1
            self.assert_holds(traj, table)

    def test_part_ending_in_a_quoted_cell_fails(self, tmp_path):
        # np.loadtxt reads '0,"1\n' as the row 0, 1, but its quote is closed
        # only in the next part: an odd number of quotes fails the part
        p = tmp_path / "a.csv"
        p.write_bytes(b'0,"1\n')
        assert np.loadtxt(p, delimiter=",", ndmin=2, quotechar='"').tolist() == [[0.0, 1.0]]
        with pytest.raises(ValueError, match=r"bytes 0-4 are not a table of finite numbers"):
            ingest._parse_part(p, 0, 5, 2, io.BytesIO())

    @pytest.mark.parametrize(
        "row, message",
        [
            ("3.0,0.5", "row 14 has 2 cells, expected 3"),
            ("3.0,#,1", "row 14, column 'x': not a number: '#'"),
            ("3.0,1,inf", "row 14, column 'y': non-finite value"),
            ("3.0,\udcf4\udc80,1", "row 14 is not UTF-8 text"),
            ("3.01,1,2", "non-uniform timestamps in column 't'"),
        ],
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_fault_in_the_last_part(
        self, tmp_path, monkeypatch, small_parts, forks, cpus, row, message
    ):
        lines, _ = _reader_body(16, 3)
        lines[12] = row  # file row 14, in the last part
        p = tmp_path / "a.csv"
        _write_lines(p, ["t,x,y", *lines])
        with pytest.raises(ValueError) as one:
            self.read(monkeypatch, read_csv_trajectory, p, 1)
        assert forks == []
        with pytest.raises(ValueError) as parts:
            self.read(monkeypatch, read_csv_trajectory, p, cpus)
        assert len(forks) == cpus - 1
        assert str(parts.value) == str(one.value) == f"{p}: {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.25,0.5", "row 3 has 2 cells, expected 3"),
            ("0.25,#,1", "row 3, column 'x': not a number: '#'"),
            ("0.25,1,\udcff", "row 3 is not UTF-8 text"),
            ("0.26,1,2", "non-uniform timestamps in column 't'"),
            ("0.0,1,2", "time column must be strictly increasing"),
        ],
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_fault_in_the_first_part(
        self, tmp_path, monkeypatch, small_parts, forks, cpus, row, message
    ):
        # this process parses the first part; its children still finish
        lines, _ = _reader_body(16, 3)
        lines[1] = row  # file row 3
        p = tmp_path / "a.csv"
        _write_lines(p, ["t,x,y", *lines])
        with pytest.raises(ValueError) as one:
            self.read(monkeypatch, read_csv_trajectory, p, 1)
        with pytest.raises(ValueError) as parts:
            self.read(monkeypatch, read_csv_trajectory, p, cpus)
        assert len(forks) == cpus - 1
        assert str(parts.value) == str(one.value) == f"{p}: {message}"

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bad_cell_outranks_an_earlier_time_fault(
        self, tmp_path, monkeypatch, small_parts, cpus
    ):
        # every part is parsed before the time column is checked, so a bad
        # cell in the last part is the error, not the uneven step before it
        lines, _ = _reader_body(16, 3)
        lines[1] = "0.26,1,2"
        lines[12] = "3.0,#,1"
        p = tmp_path / "a.csv"
        _write_lines(p, ["t,x,y", *lines])
        with pytest.raises(ValueError, match=r"row 14, column 'x': not a number: '#'"):
            self.read(monkeypatch, read_csv_trajectory, p, cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_rows_narrower_than_the_header(self, tmp_path, monkeypatch, small_parts, cpus):
        # each part alone is a table, one column wide; the header sets three
        p = tmp_path / "a.csv"
        _write_lines(p, ["t,x,y", *(repr(k / 4) for k in range(40))])
        with pytest.raises(ValueError) as one:
            self.read(monkeypatch, read_csv_trajectory, p, 1)
        with pytest.raises(ValueError) as parts:
            self.read(monkeypatch, read_csv_trajectory, p, cpus)
        assert str(parts.value) == str(one.value) == f"{p}: row 2 has 1 cells, expected 3"

    def test_weights_match_one_part(
        self, tmp_path, monkeypatch, small_parts, no_cell_parse, forks
    ):
        rng = np.random.default_rng(4)
        w = WeightSeries(rng.standard_normal((50, 2)), rng.random(50) > 0.2, dt=1 / 3.0)
        p = tmp_path / "w.csv"
        write_csv_weights(w, p)
        for cpus in 1, 2, 3:
            forks.clear()
            back = self.read(monkeypatch, read_csv_weights, p, cpus)
            assert len(forks) == cpus - 1
            assert back.values.tobytes() == w.values.tobytes()
            assert np.array_equal(back.valid_mask, w.valid_mask) and back.dt == w.dt

    def test_weight_faults_match_one_part(self, tmp_path, monkeypatch, small_parts):
        # the first bad flag is named wherever it lies, also after an uneven
        # step, as a one-part read names it
        rng = np.random.default_rng(5)
        n = 30
        w = WeightSeries(rng.standard_normal((n, 2)), rng.random(n) > 0.2, dt=0.25)
        p = tmp_path / "w.csv"
        write_csv_weights(w, p)
        lines = p.read_text().splitlines()
        for at in range(1, n + 1, 4):
            bad = list(lines)
            bad[at] = bad[at].rsplit(",", 1)[0] + ",2"
            uneven = max(1, at - 2)  # its time is 0.3: at or before the bad flag
            bad[uneven] = "0.3," + bad[uneven].split(",", 1)[1]
            _write_lines(p, bad)
            expect = f"{p}: row {at + 1}, column 'valid': expected 0 or 1, got 2"
            for cpus in 1, 2, 3:
                with pytest.raises(ValueError) as err:
                    self.read(monkeypatch, read_csv_weights, p, cpus)
                assert str(err.value) == expect

    def test_one_part_starts_no_process(self, tmp_path, monkeypatch, small_parts, forks):
        untimed = functools.partial(read_csv_trajectory, dt=0.25)
        lines, _ = _reader_body(40, 5)
        p = tmp_path / "a.csv"
        _write_lines(p, ["a,x,y", *lines])
        self.read(monkeypatch, untimed, p, 1)
        # one line longer than the parts: no line start to cut at
        _write_lines(p, ["a,x,y", lines[0] + "0" * 300])
        self.read(monkeypatch, untimed, p, 3)
        # a body shorter than two parts
        _write_lines(p, ["a,x,y", *lines])
        monkeypatch.setattr(ingest, "_PART_BYTES", p.stat().st_size // 2 + 1)
        self.read(monkeypatch, untimed, p, 4)
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_small_body_parsed_from_a_named_copy_in_this_process(
        self, tmp_path, monkeypatch, no_cell_parse, forks, cpus
    ):
        # at the real part size a body under 2 MiB is one part: this process
        # parses it from a named copy, as a forked child parses its part, and
        # not from the open file.  Quoted cells (one holding a line end), a
        # blank line after every row and \r-only line ends read to the table
        lines, table = _reader_body(2000, 7)
        t, x, y = lines[3].split(",")
        lines[3] = f'{t},{x},"{y}\r\n"'
        p = tmp_path / "a.csv"
        _write_lines(p, ['t,"x",y', *(cell for line in lines for cell in (line, ""))], "\r")
        assert p.stat().st_size < 2 * ingest._PART_BYTES
        bodies = []
        loadtxt = np.loadtxt

        def spy(body, **options):
            bodies.append(body)
            return loadtxt(body, **options)

        monkeypatch.setattr(np, "loadtxt", spy)
        traj = self.read(monkeypatch, read_csv_trajectory, p, cpus)
        assert forks == []
        assert len(bodies) == 1 and isinstance(bodies[0], str) and bodies[0] != str(p)
        self.assert_holds(traj, table)

    @pytest.mark.parametrize("block", [2, 3, 5, 1 << 16])
    def test_line_starts(self, tmp_path, monkeypatch, block):
        # a line starts after each \n and nowhere else: a lone \r ends no
        # line; reads of a few bytes put a \r\n between two reads
        monkeypatch.setattr(ingest, "_BLOCK", block)
        text = "t\r\n1\r2\n\r\n\r\r3\r\n\n4\r"
        starts = [i + 1 for i, c in enumerate(text) if c == "\n"] + [len(text)]
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        with open(p, "rb") as fb:
            for pos in range(1, len(text)):
                assert ingest._line_start(fb, pos) == min(s for s in starts if s >= pos)

    def test_no_fork_means_one_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert ingest._usable_cpus() == 1

    def test_read_peaks_below_table_plus_copy(self, tmp_path, monkeypatch):
        # at the real part size, a 100 000-row file (4.8 MB) is one part at
        # one usable CPU and cut in two at two.  Every part is parsed into a
        # part file, and the rows are copied from there straight into the
        # returned arrays.  So a read peaks below the whole table plus a
        # copy of its values, which a read that holds the parsed table while
        # it copies the values out must hold at once
        n = 100_000
        rng = np.random.default_rng(6)
        w = WeightSeries(rng.standard_normal((n, 2)), rng.random(n) > 0.1, dt=0.25)
        write_csv_trajectory(Trajectory(w.values, 0.25), tmp_path / "a.csv")
        write_csv_weights(w, tmp_path / "w.csv")

        def traced(read, path):
            tracemalloc.start()
            try:
                return read(path), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for cpus in 1, 2:
            monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
            traj, peak = traced(read_csv_trajectory, tmp_path / "a.csv")
            assert traj.samples.tobytes() == w.values.tobytes() and traj.samples.base is None
            assert peak < n * 3 * 8 + traj.samples.nbytes, cpus
            del traj
            back, peak = traced(read_csv_weights, tmp_path / "w.csv")
            assert back.values.tobytes() == w.values.tobytes() and back.values.base is None
            assert peak < n * 4 * 8 + back.values.nbytes, cpus
            del back

    def test_fault_in_the_last_row_read_in_bounded_memory(self, tmp_path, monkeypatch):
        # the per-cell parse stops at the first bad row and holds one block
        # of rows at a time, not the file: naming a bad last cell of a
        # 100 000-row file (4.8 MB, one part) peaks below 4 MB, where a
        # parse that holds every row as Python lists peaks at about 30 MB
        n = 100_000
        rng = np.random.default_rng(8)
        p = tmp_path / "a.csv"
        write_csv_trajectory(Trajectory(rng.standard_normal((n, 2)), 0.25), p)
        text = p.read_bytes()
        p.write_bytes(text[: text.rindex(b",") + 1] + b"#\r\n")
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                read_csv_trajectory(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{p}: row {n + 1}, column 'ch2': not a number: '#'"
        assert peak < 4e6


def _reference_walk(n, seed, dim, box, noise, smooth, step_scale):
    """The per-sample loop over numpy state vectors that gen_bounded_walk
    replaced, with the same draws; also counts wall reflections."""
    rng = np.random.default_rng(seed)
    kinds = (noise,) * dim if isinstance(noise, str) else tuple(noise)
    eps = np.empty((n, dim))
    for j, kind in enumerate(kinds):
        if kind == "laplace":
            eps[:, j] = rng.laplace(0.0, 1.0 / np.sqrt(2.0), n)
        elif kind == "uniform":
            eps[:, j] = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), n)
        else:
            eps[:, j] = rng.standard_normal(n)
    pos = np.empty((n, dim))
    p = rng.uniform(-0.5 * box, 0.5 * box, dim)
    v = np.zeros(dim)
    step = step_scale * box
    hits = 0
    for k in range(n):
        pos[k] = p
        v = smooth * v + (1.0 - smooth) * eps[k]
        p = p + step * v
        for j in range(dim):
            if p[j] > box:
                p[j] = 2 * box - p[j]
                v[j] = -v[j]
                hits += 1
            elif p[j] < -box:
                p[j] = -2 * box - p[j]
                v[j] = -v[j]
                hits += 1
    return pos, hits


class TestBoundedWalk:
    @pytest.mark.parametrize("seed, box", [(0, 1.0), (1, 2e4), (2, 1e-3)])
    @pytest.mark.parametrize("noise", ["laplace", "uniform", "gauss", "mixed"])
    @pytest.mark.parametrize("dim", [1, 2, 6])
    def test_bit_exact_against_per_sample_loop(self, seed, box, noise, dim):
        if noise == "mixed":
            noise = tuple(("laplace", "uniform", "gauss")[j % 3] for j in range(dim))
        # n spans two 8192-row chunks; the large step hits the walls often
        args = (9000, seed, dim, box, noise, 0.3, 0.1)
        ref, hits = _reference_walk(*args)
        walk = gen_bounded_walk(*args[:3], box=box, noise=noise, smooth=0.3, step_scale=0.1)
        assert hits > 10
        np.testing.assert_array_equal(walk.samples, ref)

    @pytest.mark.parametrize("n", [3, _CHUNK, 2 * _CHUNK + 1])
    @pytest.mark.parametrize(
        "noise", ["laplace", ("gauss", "uniform"), ("uniform", "gauss", "laplace")]
    )
    def test_noise_blocks_equal_one_draw(self, n, noise):
        # the noise drawn _CHUNK samples at a time, the start point after
        # all of it, bit for bit as one n-long draw per channel gives them
        dim = 1 if isinstance(noise, str) else len(noise)
        walk = gen_bounded_walk(n, seed=n + dim, dim=dim, noise=noise)
        ref = bounded_walk_reference(n, n + dim, dim, noise)
        assert walk.samples.tobytes() == ref.samples.tobytes()
        assert walk.channel_names == ref.channel_names

    def test_peak_memory_output_plus_one_block(self):
        # an n x dim noise array, or one channel's n-long draw, would add
        # 8 n bytes or more to the n x dim output
        n, dim = 200_000, 2
        tracemalloc.start()
        try:
            gen_bounded_walk(n, dim=dim, noise=("laplace", "gauss"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * dim + 200 * _CHUNK


class TestWav:
    def test_roundtrip_exact_integers(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.integers(-(2**15) + 1, 2**15 - 1, size=(1000, 1)).astype(float)
        data[:2, 0] = -(2**15), 2**15 - 1  # both ends of the 16-bit range
        traj = Trajectory(data, 1.0 / 16000)
        p = tmp_path / "a.wav"
        write_wav_trajectory(traj, p)
        back = read_wav_trajectory(p)
        assert back.dt == 1.0 / 16000
        assert back.n_samples == 1000
        np.testing.assert_array_equal(back.samples, data)

    @pytest.mark.parametrize("value", [-(2.0**15) - 1, 2.0**15, 0.5])
    def test_sample_outside_16_bit_integers_rejected(self, tmp_path, value):
        p = tmp_path / "a.wav"
        with pytest.raises(ValueError, match="samples must be integers within the 16-bit range"):
            write_wav_trajectory(Trajectory(np.array([[0.0], [value]]), 1.0 / 16000), p)
        assert not p.exists()

    @pytest.mark.parametrize("dt", [0.003, 1 / 16000.5, 3.0])
    def test_dt_without_integer_rate_rejected(self, tmp_path, dt):
        p = tmp_path / "a.wav"
        with pytest.raises(ValueError, match="is not an integer sample rate"):
            write_wav_trajectory(Trajectory(np.zeros((8, 1)), dt), p)
        assert not p.exists()

    def test_rate_within_tolerance_accepted(self, tmp_path):
        # 1/dt rounds to 16000 within 1e-9 relative
        p = tmp_path / "a.wav"
        write_wav_trajectory(Trajectory(np.zeros((8, 1)), 1 / 16000 * (1 + 1e-12)), p)
        assert read_wav_trajectory(p).dt == 1 / 16000

    @pytest.mark.parametrize("cut, held", [(3, 999), (4, 999)])
    def test_truncated_file_named_with_frame_counts(self, tmp_path, cut, held):
        # 1000 frames of two channels: 4000 data bytes after the header
        p = tmp_path / "cut.wav"
        write_wav_trajectory(Trajectory(np.ones((1000, 2)), 1.0 / 16000), p)
        p.write_bytes(p.read_bytes()[:-cut])
        message = (
            f"{p}: truncated: the header gives 1000 frames, the data holds {held} "
            f"({4000 - cut} of 4000 bytes)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_wav_trajectory(p)

    def test_all_zero(self, tmp_path):
        traj = Trajectory(np.zeros((64, 2)), 1.0 / 16000)
        p = tmp_path / "z.wav"
        write_wav_trajectory(traj, p)
        back = read_wav_trajectory(p)
        assert np.all(back.samples == 0) and back.dim == 2


class TestGenSine:
    def test_symmetry_points(self):
        traj = gen_sine(1.0, np.pi / 2, 3)
        np.testing.assert_allclose(traj.samples[:, 0], [0, 1, 0], atol=1e-12)

    def test_t0_is_zero(self):
        assert gen_sine(2.0, 0.1, 5).samples[0, 0] == 0.0

    def test_direct_evaluation(self):
        traj = gen_sine(1.0, 0.01, 10)
        assert traj.samples[1, 0] == pytest.approx(np.sin(0.01), abs=1e-15)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            gen_sine(0.0, 0.1, 10)


class TestApplyTransform:
    def test_identity(self):
        traj = Trajectory(np.array([0.5, -0.5, 0.25]), 1.0)
        out = apply_transform(traj, [0.0, 1.0], (-1.0, 1.0))
        np.testing.assert_array_equal(out.samples, traj.samples)
        assert out.dt == traj.dt
        assert out.channel_names == ("ch1'",)

    def test_monotone_cubic_bisection_inverse(self):
        # invert f(x) = x + 0.1 x^3 numerically and recover the inputs
        xs = np.linspace(-1.9, 1.9, 41)
        traj = Trajectory(xs, 1.0)
        ys = apply_transform(traj, [0.0, 1.0, 0.0, 0.1], (-2.0, 2.0)).samples[:, 0]

        def f(x):
            return x + 0.1 * x**3

        for x_true, y in zip(xs, ys):
            lo, hi = -2.0, 2.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if f(mid) < y:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(x_true, abs=1e-9)

    def test_non_monotone_polynomial_rejected(self):
        traj = Trajectory(np.array([0.0, 0.5]), 1.0)
        with pytest.raises(TransformError, match="not strictly monotonic"):
            apply_transform(traj, [0.0, 0.0, 1.0], (-1.0, 1.0))  # x^2

    def test_decreasing_polynomial_accepted(self):
        traj = Trajectory(np.array([0.0, 0.5]), 1.0)
        out = apply_transform(traj, [1.0, -2.0], (0.0, 1.0))
        np.testing.assert_array_equal(out.samples[:, 0], [1.0, 0.0])

    def test_domain_violation(self):
        with pytest.raises(TransformError, match="outside declared polynomial domain"):
            apply_transform(Trajectory(np.array([0.0, 0.5, 2.0]), 1.0), [0.0, 1.0], (0.0, 1.0))


class TestMixTwoSources:
    def test_origin_direct_evaluation(self):
        traj = Trajectory(np.zeros((3, 2)), 1.0)
        out = mix_two_sources(traj)
        assert out.samples[0, 0] == pytest.approx(958.0**1.5)
        assert out.samples[0, 1] == pytest.approx(np.sqrt(3.75e7))
        # printed approximations
        assert out.samples[0, 0] == pytest.approx(29651.6, abs=0.5)
        assert out.samples[0, 1] == pytest.approx(6123.72, abs=0.01)

    def test_domain_error(self):
        data = np.zeros((3, 2))
        data[0, 0] = -(2.0**16)
        with pytest.raises(TransformError):
            mix_two_sources(Trajectory(data, 1.0))

    def test_grid_injectivity(self):
        # the mapped grid must not fold over: nearest-neighbor collision check
        g = np.linspace(-(2.0**15), 2.0**15, 41)
        xx, yy = np.meshgrid(g, g)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        mapped = mix_two_sources(Trajectory(pts, 1.0)).samples
        # normalize scales before distance comparison
        mapped = (mapped - mapped.mean(axis=0)) / mapped.std(axis=0)
        d2 = np.sum((mapped[None, :, :] - mapped[:, None, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        src = (pts - pts.mean(axis=0)) / pts.std(axis=0)
        s2 = np.sum((src[None, :, :] - src[:, None, :]) ** 2, axis=2)
        np.fill_diagonal(s2, np.inf)
        # the map compresses strongly in places but never folds: the closest
        # mapped pair stays orders of magnitude above numerical coincidence
        assert np.sqrt(d2.min()) > 1e-3 * np.sqrt(s2.min())


class TestPcaEmbed:
    def test_axis_aligned(self):
        rng = np.random.default_rng(0)
        data = np.zeros((1000, 2))
        data[:, 0] = rng.standard_normal(1000)
        out, frac = pca_embed(Trajectory(data, 1.0), 1)
        assert frac[0] == pytest.approx(1.0)
        c = np.corrcoef(out.samples[:, 0], data[:, 0])[0, 1]
        assert abs(c) == pytest.approx(1.0)

    def test_isotropic_split(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((10_000, 2))
        _, frac = pca_embed(Trajectory(data, 1.0), 2)
        assert frac[0] == pytest.approx(0.5, abs=0.05)
        assert frac[1] == pytest.approx(0.5, abs=0.05)

    def test_unit_variance_and_orthogonality(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5000, 4)) @ rng.standard_normal((4, 4))
        out, _ = pca_embed(Trajectory(data, 1.0), 3)
        cov = np.cov(out.samples.T, bias=True)
        np.testing.assert_allclose(np.diag(cov), 1.0, atol=1e-9)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-9

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            pca_embed(Trajectory(np.random.default_rng(0).standard_normal((50, 2)), 1.0), 3)

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pca_embed(Trajectory(np.zeros((50, 2)) + 1.0, 1.0), 1)


class TestLiftedLatent:
    def test_latent_stays_in_box(self):
        latent, _ = gen_lifted_latent(10_000, seed=0)
        assert np.max(np.abs(latent.samples)) <= 1.0 + 1e-12

    def test_determinism(self):
        a1, b1 = gen_lifted_latent(10_000, seed=5)
        a2, b2 = gen_lifted_latent(10_000, seed=5)
        np.testing.assert_array_equal(a1.samples, a2.samples)
        np.testing.assert_array_equal(b1.samples, b2.samples)

    def test_lift_injectivity_on_grid(self):
        # grid-collision oracle: distinct latent grid points stay distinct
        g = np.linspace(-1, 1, 50)
        uu, vv = np.meshgrid(g, g)
        pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
        mapped = ingest.lift_map(pts)
        d2 = np.sum((mapped[None, :, :] - mapped[:, None, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        latent_spacing = g[1] - g[0]
        # image separation should not collapse below a fraction of the
        # latent spacing times the smallest singular value scale of the lift
        assert np.sqrt(d2.min()) > 0.5 * latent_spacing

    def test_top2_variance(self):
        _, lifted = gen_lifted_latent(20_000, seed=0)
        _, frac = pca_embed(lifted, 2)
        assert float(np.sum(frac)) >= 0.99

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            gen_lifted_latent(100, seed=0)
