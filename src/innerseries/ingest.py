"""Loading, synthesis, transformation, and embedding of measurement series.

Generators are deterministic per 64-bit seed.  A sensor is an instantaneous
map x -> x': apply_transform re-senses each channel through a monotone
polynomial, and mix_two_sources is the fixed two-source nonlinear mixing.
WAV samples are kept as raw 16-bit integers (as real numbers), which keeps
them inside the +-2^15 box the two-source mixing functions require.

Trajectory and weight CSVs are formatted in contiguous parts, one per
usable CPU: forked processes format every part after the first while this
process writes the first.  A large CSV body is read the same way: cut
after line feeds, every part is parsed into a temporary file, the first by
this process and the others by forked processes, and the rows are copied
block by block from those files straight into the arrays the reader returns.
The bytes written and the arrays read do not depend on the number of
parts, and there is no option to set it; where os.fork is missing one
process does all.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import shutil
import tempfile
import warnings
import wave
from pathlib import Path

import numpy as np

from .model import Trajectory

MIX_BOX = 2.0**15  # admissible |value| for each channel fed to mix_two_sources
TIME_COLUMN = "t"  # the time column of trajectory and weight CSVs


class TransformError(ValueError):
    pass


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

_CHUNK = 8192  # rows per Python-level batch; bounds the per-row lists held at once
_PART_BYTES = 1 << 20  # a CSV body is parsed in parts of at least this many bytes
_BLOCK = 1 << 16  # bytes per read while the reader looks for a line start


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork or
    does not report CPU affinity (Windows, macOS)."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _forked(path, jobs) -> None:
    """Run the first (what, job) of jobs in this process and each other one
    in a forked child; then wait for every child, and raise this process's
    own error, or a RuntimeError naming path and what a failed child was
    doing."""
    (_, own), *others = jobs
    pids = []
    try:
        for _, job in others:
            pid = os.fork()
            if pid == 0:  # the child: run its job, never return
                code = 1
                try:
                    job()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        own()
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, (what, _) in zip(codes, others):
        if code != 0:
            raise RuntimeError(f"{path}: the process {what} exited with code {code}")


def _open_text(path):
    """path opened as UTF-8 CSV text, each byte that is not UTF-8 read as a
    lone surrogate (see _not_utf8) rather than raised at whatever line the
    decoder's block reached."""
    return open(path, newline="", encoding="utf-8", errors="surrogateescape")


def _not_utf8(text: str) -> bool:
    """Whether text read by _open_text holds a byte that is not UTF-8: a
    lone surrogate, which no UTF-8 text decodes to, does not encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _parse_cells(path, header: list[str], out) -> None:
    """Parse a CSV body cell by cell, as csv.reader yields its rows (blank
    ones skipped), and write the rows' float64 bytes to the binary file out,
    _CHUNK rows at a time; stop at the first row that is not UTF-8 text,
    ragged row, bad cell or non-finite value with a ValueError naming its
    row (header = row 1) and column."""
    with _open_text(path) as fh:
        rows = (r for r in csv.reader(fh) if r)
        next(rows, None)  # the header
        chunk = []
        for i, row in enumerate(rows, start=2):
            if _not_utf8("".join(row)):
                raise ValueError(f"{path}: row {i} is not UTF-8 text")
            if len(row) != len(header):
                raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            for name, cell in zip(header, row):
                text = cell.strip()  # float() also reads 1_0 and Arabic-Indic digits
                try:
                    if "_" in text or not text.isascii():  # which np.loadtxt refuses
                        raise ValueError
                    val = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {i}, column '{name}': not a number: {cell!r}"
                    ) from None
                if not math.isfinite(val):
                    raise ValueError(f"{path}: row {i}, column '{name}': non-finite value")
                chunk.append(val)
            if len(chunk) == _CHUNK * len(header):
                out.write(np.array(chunk).data)
                chunk.clear()
    out.write(np.array(chunk).data)
    out.flush()


def _line_start(fb, pos: int) -> int:
    """The first line start at or after byte pos > 0 of a binary file, or
    the file's size: a line starts after a \n, found by reads of at most
    _BLOCK bytes."""
    fb.seek(pos - 1)
    line = fb.readline(_BLOCK)
    while line and not line.endswith(b"\n"):  # a line longer than _BLOCK, or the last
        line = fb.readline(_BLOCK)
    return fb.tell()


def _parse_part(path, lo: int, hi: int, width: int, out) -> None:
    """Parse bytes lo..hi-1 of a CSV body, cut after line feeds, and write
    the rows' float64 bytes to the binary file out; raise ValueError unless
    they are rows of width finite numbers (quoted or plain cells, blank
    lines skipped).

    The bytes are parsed from a named copy, written one _BLOCK at a time:
    np.loadtxt reads a named file in large blocks, but iterates an open one
    line by line in Python.  An odd number of quotes fails the part, as a
    quoted cell then spans a cut.
    """
    quotes = 0
    with open(path, "rb") as fb, tempfile.NamedTemporaryFile() as text:
        fb.seek(lo)
        for at in range(lo, hi, _BLOCK):
            block = fb.read(min(_BLOCK, hi - at))
            quotes += block.count(b'"')
            text.write(block)
        text.flush()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            data = np.loadtxt(text.name, delimiter=",", ndmin=2, comments=None, quotechar='"')
    if quotes % 2 or len(data) and (data.shape[1] != width or not np.isfinite(data).all()):
        raise ValueError(f"{path}: bytes {lo}-{hi - 1} are not a table of finite numbers")
    out.write(data.data)
    out.flush()


def _blocks(parts, counts: list[int], width: int):
    """(lo, rows) for the rows of a CSV body in order, at most _CHUNK at a
    time: the (count, width) float64 rows of each part file, read into one
    reused buffer; a block is valid only until the next is drawn."""
    at, buf = 0, np.empty((_CHUNK, width))
    for part, count in zip(parts, counts):
        part.seek(0)
        for lo in range(0, count, _CHUNK):
            rows = buf[: min(_CHUNK, count - lo)]
            part.readinto(rows)
            yield at + lo, rows
        at += count


@contextlib.contextmanager
def _read_csv_body(path):
    """Yield (header, n, blocks) for a CSV whose cells are all finite numbers
    (quoted or not; blank body lines skipped) under a header of distinct
    names on line 1: blocks yields (lo, rows) for the n body rows in order
    (see _blocks), for the caller to copy into the arrays it returns.
    Errors name the row and column at fault.

    A body of at least 2 * _PART_BYTES is cut after line feeds into one
    part per usable CPU.  Each part is parsed (_parse_part) into an unlinked
    temporary file, the first by this process and each other one by a
    forked child.  If any part fails, _parse_cells parses the body into one
    part file instead, up to the first fault.
    """
    with _open_text(path) as fh:
        head = []  # the lines the header row is read from
        header = next(csv.reader(head.append(line) or line for line in fh), None)
        if _not_utf8("".join(head)):
            raise ValueError(f"{path}: not UTF-8 text")
        if header is None:
            raise ValueError(f"{path}: empty file, no header row")
        if not header:  # csv.reader gives a blank line no cells
            raise ValueError(f"{path}: line 1 is blank; the header row must come first")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise ValueError(f"{path}: column {repeated[0]!r} appears more than once in the header")
        start = len("".join(head).encode(fh.encoding))
        size = os.fstat(fh.fileno()).st_size
        k = max(1, min(_usable_cpus(), (size - start) // _PART_BYTES))
        inner = [_line_start(fh.buffer, start + (size - start) * i // k) for i in range(1, k)]
    width = len(header)
    cuts = sorted({start, size, *inner})
    with contextlib.ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile()) for _ in cuts[1:]]

        def job(part, lo, hi):
            return f"reading bytes {lo}-{hi - 1}", lambda: _parse_part(path, lo, hi, width, part)

        try:
            _forked(path, [job(*p) for p in zip(parts, cuts, cuts[1:])])
        except (ValueError, RuntimeError):
            # only the per-cell parse can say where the problem is
            parts = [stack.enter_context(tempfile.TemporaryFile())]
            _parse_cells(path, header, parts[0])
        counts = [os.fstat(part.fileno()).st_size // (8 * width) for part in parts]
        n = sum(counts)
        if n == 0:
            raise ValueError(f"{path}: no data rows")
        yield header, n, _blocks(parts, counts, width)


class _TimeSteps:
    """The step of a time column fed block by block, which must be uniform
    to 1e-9 relative.  Only the first, least and greatest step are kept: a
    step's deviation from the first grows with the step, so the least and
    the greatest bound every deviation."""

    def __init__(self):
        self.last = self.first = None  # the last time fed; the first step
        self.least, self.greatest = np.inf, -np.inf

    def add(self, times: np.ndarray) -> None:
        steps = np.diff(times) if self.last is None else np.diff(times, prepend=self.last)
        if len(steps):
            if self.first is None:
                self.first = float(steps[0])
            self.least = min(self.least, float(steps.min()))
            self.greatest = max(self.greatest, float(steps.max()))
        self.last = times[-1]

    def step(self, path) -> float:
        if self.first is None:  # one row, as a body without rows is rejected first
            raise ValueError(f"{path}: one data row, cannot infer dt from column '{TIME_COLUMN}'")
        step = self.first
        if step <= 0:
            raise ValueError(f"{path}: time column must be strictly increasing")
        if np.max(np.abs(np.subtract([self.least, self.greatest], step))) > 1e-9 * step:
            raise ValueError(f"{path}: non-uniform timestamps in column '{TIME_COLUMN}'")
        return step


def _write_rows(fh, dt: float, columns, lo: int, hi: int) -> None:
    """Write rows lo..hi-1: sample time k * dt, then the columns' k-th
    values, each cell as its repr, _CHUNK rows per write."""
    for a in range(lo, hi, _CHUNK):
        b = min(a + _CHUNK, hi)
        cells = [(np.arange(a, b) * dt).tolist(), *(c[a:b].tolist() for c in columns)]
        fh.write("\r\n".join(map(",".join, zip(*(map(repr, c) for c in cells)))) + "\r\n")


def _write_csv_columns(path, header, dt: float, columns) -> None:
    """Write the bytes csv.writer would for the header, then rows of sample
    time k * dt and the 1-D columns' k-th values, each cell as its repr.

    The rows are cut into one contiguous part per usable CPU (at most one
    per _CHUNK block).  After the header, this process writes the first
    part while a forked child formats each other part into an unlinked
    temporary file; the parts are then appended in order.
    """
    dt, n = float(dt), len(columns[0])
    blocks = -(-n // _CHUNK)
    k = max(1, min(_usable_cpus(), blocks))
    cuts = [_CHUNK * (blocks * i // k) for i in range(k)] + [n]
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(Path(path).open("w", newline=""))
        parts = [stack.enter_context(tempfile.TemporaryFile("w+", newline="")) for _ in cuts[2:]]

        def job(out, lo, hi):
            def write():
                _write_rows(out, dt, columns, lo, hi)
                out.flush()

            return f"writing rows {lo + 2}-{hi + 1}", write

        csv.writer(fh).writerow(header)
        _forked(path, [job(*p) for p in zip([fh, *parts], cuts, cuts[1:])])
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part.buffer, fh.buffer)


def read_csv_trajectory(path, dt: float | None = None) -> Trajectory:
    """Read a trajectory from CSV: header row, optional time column "t", one
    column per channel.

    dt is taken from the time column, which must be uniform to 1e-9 relative.
    A file without one needs a fixed dt, and a file with one rejects it.
    """
    with _read_csv_body(path) as (header, n, blocks):
        timed = TIME_COLUMN in header
        if timed and dt is not None:
            raise ValueError(
                f"{path}: column '{TIME_COLUMN}' sets dt; a fixed dt cannot also be given"
            )
        if not timed and dt is None:
            raise ValueError(f"{path}: no time column found and no fixed dt given")
        if header == [TIME_COLUMN]:
            raise ValueError(f"{path}: no channel column beside '{TIME_COLUMN}'")
        tcol = header.index(TIME_COLUMN) if timed else len(header)
        samples = np.empty((n, len(header) - timed))
        times = _TimeSteps()
        for lo, rows in blocks:
            samples[lo : lo + len(rows), :tcol] = rows[:, :tcol]
            samples[lo : lo + len(rows), tcol:] = rows[:, tcol + 1 :]
            if timed:
                times.add(rows[:, tcol])
    if timed:
        dt = times.step(path)
        del header[tcol]
    return Trajectory(samples, float(dt), tuple(header))


def write_csv_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with a time column "t"; values use shortest
    round-trip decimal form so read-back is bit-exact."""
    _write_csv_columns(path, [TIME_COLUMN, *traj.channel_names], traj.dt, traj.samples.T)


def read_wav_trajectory(path) -> Trajectory:
    """Read PCM 16-bit WAV; channels become measurement components, samples
    stay raw integers, dt = 1/sample_rate."""
    path = Path(path)
    with wave.open(str(path), "rb") as wf:
        if wf.getsampwidth() != 2:
            raise ValueError(f"{path}: only 16-bit PCM supported")
        n_chan = wf.getnchannels()
        rate = wf.getframerate()
        n = wf.getnframes()
        raw = wf.readframes(n)
    if len(raw) != 2 * n_chan * n:
        raise ValueError(
            f"{path}: truncated: the header gives {n} frames, the data holds "
            f"{len(raw) // (2 * n_chan)} ({len(raw)} of {2 * n_chan * n} bytes)"
        )
    data = np.frombuffer(raw, dtype="<i2").astype(float).reshape(n, n_chan)
    names = tuple(f"ch{i + 1}" for i in range(n_chan))
    return Trajectory(data, 1.0 / rate, names)


def write_wav_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as PCM 16-bit WAV; samples must already be integers
    in the 16-bit range, and 1/dt an integer sample rate to 1e-9 relative."""
    data = traj.samples
    if np.any(data < -(2**15)) or np.any(data > 2**15 - 1) or np.any(data != np.round(data)):
        raise ValueError("samples must be integers within the 16-bit range")
    rate = round(1.0 / traj.dt)
    if abs(1.0 / traj.dt - rate) > 1e-9 / traj.dt:
        raise ValueError(f"1/dt = {1.0 / traj.dt!r} is not an integer sample rate")
    with wave.open(str(Path(path)), "wb") as wf:
        wf.setnchannels(traj.dim)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(data.astype("<i2").tobytes())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_sine(a: float, dt: float, n: int) -> Trajectory:
    """x[k] = a sin(k dt)."""
    if a == 0:
        raise ValueError("amplitude must be nonzero")
    t = np.arange(n) * dt
    return Trajectory(a * np.sin(t), dt, ("x",))


def gen_broadband(
    n: int, dt: float = 1.0 / 16000, seed: int = 0, amplitude: float = 1.0
) -> Trajectory:
    """Smooth 1-D broadband signal: a sum of 24 incommensurate sinusoids with
    seeded random frequencies, phases, and 1/f-ish amplitudes."""
    n_tones = 24
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    # frequencies spread over ~2.5 decades below a fraction of Nyquist
    f_hi = 0.05 / dt
    freqs = f_hi * 10.0 ** (-2.5 * rng.random(n_tones))
    phases = rng.uniform(0, 2 * np.pi, n_tones)
    amps = rng.uniform(0.3, 1.0, n_tones) / np.sqrt(freqs / freqs.min())
    x, s = np.zeros(n), np.empty(n)  # s: each tone in turn, formed in place
    for f, p, amp in zip(freqs, phases, amps):
        np.multiply(2 * np.pi * f, t, out=s)
        s += p
        np.sin(s, out=s)
        s *= amp
        x += s
    x *= amplitude / np.max(np.abs(x))
    return Trajectory(x, dt, ("x",))


# each noise kind's draw of m samples, of unit variance
_NOISE = {
    "laplace": lambda rng, m: rng.laplace(0.0, 1.0 / np.sqrt(2.0), m),
    "uniform": lambda rng, m: rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), m),
    "gauss": lambda rng, m: rng.standard_normal(m),
}


def gen_bounded_walk(
    n: int,
    seed: int = 0,
    dim: int = 1,
    box: float = 1.0,
    dt: float = 1.0,
    noise: str | tuple[str, ...] = "laplace",
    smooth: float = 0.5,
    step_scale: float = 0.02,
) -> Trajectory:
    """Bounded random walk with AR(1)-smoothed non-Gaussian velocity and
    reflecting box walls.

    noise picks the per-channel driving distribution ('laplace', 'uniform',
    or 'gauss'); mixing distributions across channels gives the channels
    distinct velocity kurtosis, which downstream frame solving relies on.
    The noise is drawn _CHUNK samples at a time while stepping, so no n-long
    noise array is held.
    """
    kinds = (noise,) * dim if isinstance(noise, str) else tuple(noise)
    if len(kinds) != dim:
        raise ValueError(f"need one noise kind per channel, got {len(kinds)} for dimension {dim}")
    for kind in kinds:
        if kind not in _NOISE:
            raise ValueError(f"unknown noise kind {kind!r}")
    rng = np.random.default_rng(seed)

    def noise_blocks(kind):
        """The channel's n draws, _CHUNK at a time: numpy's generators draw
        a block's samples in turn, so the blocks equal one n-long draw."""
        for lo in range(0, n, _CHUNK):
            yield _NOISE[kind](rng, min(_CHUNK, n - lo))

    # the start point is drawn after every channel's noise: skip through
    # the noise, draw it, then go back and draw the noise while stepping
    state = rng.bit_generator.state
    for kind in kinds:
        for _ in noise_blocks(kind):
            pass
    start = rng.uniform(-0.5 * box, 0.5 * box, dim).tolist()
    rng.bit_generator.state = state
    pos = np.empty((n, dim))
    step = step_scale * box
    gain = 1.0 - smooth
    top, bottom, span = float(box), -float(box), 2.0 * box
    # the channels are independent: step each one on Python floats
    for j, kind in enumerate(kinds):
        p, v = start[j], 0.0
        for lo, eps in zip(range(0, n, _CHUNK), noise_blocks(kind)):
            col = []
            keep = col.append
            for kick in (gain * eps).tolist():
                keep(p)
                v = smooth * v + kick
                p += step * v
                # reflect at the walls, flipping the velocity
                if p > top:
                    p = span - p
                    v = -v
                elif p < bottom:
                    p = -span - p
                    v = -v
            pos[lo : lo + _CHUNK, j] = col
    names = tuple(f"s{i + 1}" for i in range(dim))
    return Trajectory(pos, dt, names)


# fixed 6-D lift of a 2-D latent: dominant linear part plus a small smooth
# nonlinear perturbation, injective because the linear part has rank 2
_LIFT_LINEAR = np.array(
    [
        [1.0, 0.3],
        [-0.4, 1.1],
        [0.7, -0.8],
        [0.2, 0.9],
        [-1.1, 0.5],
        [0.6, 0.6],
    ]
)
_LIFT_EPS = 0.05


def lift_map(latent: np.ndarray) -> np.ndarray:
    """The fixed 6-D lift used by gen_lifted_latent (points on rows)."""
    u = latent[..., 0]
    v = latent[..., 1]
    nonlin = np.stack(
        [
            np.sin(1.3 * u) * np.cos(0.7 * v),
            u * v,
            np.sin(0.9 * v),
            u**2 - v**2,
            np.cos(1.1 * u),
            u**3,
        ],
        axis=-1,
    )
    nonlin *= _LIFT_EPS
    return np.add(latent @ _LIFT_LINEAR.T, nonlin, out=nonlin)


def distort_lift(lifted: np.ndarray) -> np.ndarray:
    """A fixed invertible distortion of the 6-D lift: per-channel monotone
    cubic followed by a fixed rotation-like mixing.  Composing it with
    lift_map yields a second, distinct lift of the same latent."""
    y = lifted**3
    y *= 0.03
    y += lifted
    rng = np.random.default_rng(987654321)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    return y @ q.T


def gen_lifted_latent(
    n: int, seed: int, dt: float = 1.0
) -> tuple[Trajectory, Trajectory]:
    """Smooth bounded 2-D latent walk plus its fixed injective 6-D lift."""
    if n < 10**4:
        raise ValueError("need n >= 10^4")
    latent = gen_bounded_walk(
        n,
        seed=seed,
        dim=2,
        box=1.0,
        dt=dt,
        noise=("laplace", "uniform"),
        smooth=0.5,
        step_scale=0.015,
    )
    lifted = Trajectory(
        lift_map(latent.samples), dt, tuple(f"y{i + 1}" for i in range(6))
    )
    return latent, lifted


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def apply_transform(traj: Trajectory, coeffs, domain: tuple[float, float]) -> Trajectory:
    """Re-sense every channel through one polynomial (coeffs ascending) that
    is strictly monotone on domain (lo, hi), checked by dense derivative
    sampling; every sample must lie in domain.  dt is unchanged and each
    channel name gains a prime.
    """
    coeffs = np.asarray(coeffs, dtype=float)[::-1]  # np.polyval wants descending
    lo, hi = domain
    deriv = np.polyval(np.polyder(coeffs), np.linspace(lo, hi, 4096))
    if not (np.all(deriv > 0) or np.all(deriv < 0)):
        raise TransformError("polynomial is not strictly monotonic on its domain")
    x = traj.samples
    if np.any(x < lo) or np.any(x > hi):
        raise TransformError("sample outside declared polynomial domain")
    names = tuple(f"{c}'" for c in traj.channel_names)
    y = np.zeros_like(x)  # Horner in place, as np.polyval evaluates it
    for c in coeffs:
        y *= x
        y += c
    return Trajectory(y, traj.dt, names)


def mix_two_sources(traj2: Trajectory) -> Trajectory:
    """The fixed nonlinear two-source mixing map on the +-2^15 box."""
    if traj2.dim != 2:
        raise TransformError("mixing expects exactly 2 channels")
    x1 = traj2.channel(0)
    x2 = traj2.channel(1)
    if np.any(np.abs(x1) > MIX_BOX) or np.any(np.abs(x2) > MIX_BOX):
        raise TransformError("input outside the +-2^15 mixing domain")
    # mu1 = 0.763 x1 + (958 - 0.0225 x2)^1.5 and
    # mu2 = 0.153 x2 + (3.75e7 - 763 x1 - 229 x2)^0.5, written into one
    # (n, 2) array with one temporary, in the operation order of those
    # expressions, so every bit is theirs
    out, tmp = np.empty((len(x1), 2)), np.empty(len(x1))
    mu1, mu2 = out.T
    np.multiply(0.0225, x2, out=tmp)
    np.subtract(958.0, tmp, out=tmp)
    np.power(tmp, 1.5, out=tmp)
    np.multiply(0.763, x1, out=mu1)
    mu1 += tmp
    np.multiply(763.0, x1, out=tmp)
    np.subtract(3.75e7, tmp, out=tmp)
    np.multiply(229.0, x2, out=mu2)
    tmp -= mu2
    np.sqrt(tmp, out=tmp)
    np.multiply(0.153, x2, out=mu2)
    mu2 += tmp
    return Trajectory(out, traj2.dt, ("m1", "m2"))


def pca_embed(series: Trajectory, k: int) -> tuple[Trajectory, np.ndarray]:
    """Top-k principal components, each rescaled to unit variance.

    Returns the embedded trajectory and the per-component explained-variance
    fractions (relative to the total input variance).
    """
    x = series.samples
    d = x.shape[1]
    if not (1 <= k <= d):
        raise ValueError("need 1 <= k <= input dimension")
    if x.shape[0] <= d:
        raise ValueError("need more samples than input dimension")
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / x.shape[0]
    total = np.trace(cov)
    if total <= 0:
        raise ValueError("zero-variance input")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    var = evals[order]
    if np.any(var <= 0):
        raise ValueError("degenerate principal component variance")
    # project into xc's first k columns, _CHUNK rows at a time (comps is xc
    # when k = d); a one-row tail joins the block before it, as numpy forms
    # a one-row product by another kernel, with other bits
    e, n = evecs[:, order], len(xc)
    for lo in range(0, n - 1, _CHUNK):
        hi = n if n - lo <= _CHUNK + 1 else lo + _CHUNK
        xc[lo:hi, :k] = xc[lo:hi] @ e
    comps = np.ascontiguousarray(xc[:, :k])
    comps /= np.sqrt(var)
    fractions = var / total
    names = tuple(f"pc{i + 1}" for i in range(k))
    return Trajectory(comps, series.dt, names), fractions
