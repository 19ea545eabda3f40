"""Every reading option of every command, fed every kind of artifact: a
wrong or broken file exits 2 with one stderr line that begins with its
path, and a file the option reads is accepted."""

import pytest

from innerseries.cli import main

SAMPLES = 4000  # at least min_count in each bin of 2 x 2


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One file of each kind, written by the CLI where it writes that kind."""
    d = tmp_path_factory.mktemp("kinds")
    walk, wav = d / "walk.csv", d / "walk.wav"
    synth = ["synth", "--kind", "walk", "--samples", SAMPLES, "--dim", "2"]
    assert run([*synth, "--out", walk]) == 0
    assert run([*synth, "--amplitude", "20000", "--out", wav]) == 0
    assert run(["moments", "--in", walk, "--bins", "2,2", "--out", d / "moments.json"]) == 0
    assert run(["frames", "--moments", d / "moments.json", "--out", d / "field.json"]) == 0
    weights = d / "weights.csv"
    assert run(["weights", "--in", walk, "--field", d / "field.json", "--out", weights]) == 0
    assert run(["align", "--a", weights, "--b", weights, "--out", d / "report.json"]) == 0

    text = walk.read_bytes()
    row = text.index(b"\n", 1000) + 1
    cut = text.index(b",", row) + 3  # inside the second cell of a row
    (d / "truncated.csv").write_bytes(text[:cut])
    (d / "truncated.wav").write_bytes(wav.read_bytes()[:1000])
    (d / "truncated.json").write_bytes((d / "field.json").read_bytes()[:200])
    (d / "empty.csv").write_bytes(b"")
    (d / "binary.csv").write_bytes(wav.read_bytes())
    # another program's table: numeric columns, none of them a time column
    (d / "notime.csv").write_text("x,y\n" + "".join(f"{k % 7},{k % 5}\n" for k in range(50)))
    # a time column and nothing else; a time column and valid flags, no weights
    (d / "timeonly.csv").write_text("t\n" + "".join(f"{k / 4}\n" for k in range(50)))
    (d / "noweights.csv").write_text("t,valid\n" + "".join(f"{k / 4},1\n" for k in range(50)))
    return d


KINDS = {
    "trajectory-csv": "walk.csv",
    "weights-csv": "weights.csv",
    "wav": "walk.wav",
    "moments-json": "moments.json",
    "field-json": "field.json",
    "report-json": "report.json",  # what align writes
    "empty": "empty.csv",
    "truncated-csv": "truncated.csv",
    "truncated-wav": "truncated.wav",
    "truncated-json": "truncated.json",
    "binary-csv": "binary.csv",
    "untimed-csv": "notime.csv",
    "time-only-csv": "timeonly.csv",
    "no-weights-csv": "noweights.csv",
}

# each reading option: its command, the argv that gives it the file at path
# (every other input one of the files in d) before --out, and the kinds it
# accepts.  A weight CSV is a
# trajectory CSV of three channels (the weights and the valid flag): plot
# draws it, and moments and weights reject it for its dimension, naming it.
# So is a weight CSV without weights, of the one channel 'valid'.
TRAJECTORY = {"trajectory-csv", "wav"}
OPTIONS = {
    "moments --in": (
        "moments", lambda d, p: ["--in", p, "--bins", "2,2"], TRAJECTORY
    ),
    "frames --moments": (
        "frames", lambda d, p: ["--moments", p], {"moments-json"}
    ),
    "weights --in": (
        "weights",
        lambda d, p: ["--in", p, "--field", d / "field.json"],
        TRAJECTORY,
    ),
    "weights --field": (
        "weights",
        lambda d, p: ["--in", d / "walk.csv", "--field", p],
        {"field-json"},
    ),
    "align --a": (
        "align", lambda d, p: ["--a", p, "--b", d / "weights.csv"],
        {"weights-csv"},
    ),
    "align --b": (
        "align", lambda d, p: ["--a", d / "weights.csv", "--b", p],
        {"weights-csv"},
    ),
    "separability --mixture": (
        "separability",
        lambda d, p: ["--mixture", p, "--sources", d / "weights.csv"],
        {"weights-csv"},
    ),
    "separability --sources": (
        "separability",
        lambda d, p: ["--mixture", d / "weights.csv", "--sources", p],
        {"weights-csv"},
    ),
    "reconstruct --weights": (
        "reconstruct",
        lambda d, p: [
            "--weights", p, "--field", d / "field.json", "--x0", "0,0", "--steps", "5"
        ],
        {"weights-csv"},
    ),
    "reconstruct --field": (
        "reconstruct",
        lambda d, p: [
            "--weights", d / "weights.csv", "--field", p, "--x0", "0,0", "--steps", "5"
        ],
        {"field-json"},
    ),
    "plot --in": (
        "plot", lambda d, p: ["--in", p], TRAJECTORY | {"weights-csv", "no-weights-csv"}
    ),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("option", OPTIONS)
def test_every_wrong_file_named(option, kind, files, tmp_path, capsys):
    command, argv, accepted = OPTIONS[option]
    path, out = files / KINDS[kind], tmp_path / "out"
    capsys.readouterr()
    rc = run([command, *argv(files, path), "--out", out])
    err = capsys.readouterr().err
    if kind in accepted:
        assert rc != 2 and "error" not in err  # separability may exit 1: a verdict
    else:
        assert rc == 2
        assert err.startswith(f"error [{command}]: {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()
