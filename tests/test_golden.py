"""Golden CLI corpus: the `--json` stdout of fixed commands, and the text
stdout of more, compared byte for byte with the files in tests/golden/.

The JSON corpus covers every subcommand, q = 1 and q = 3 mod 4, q = 9 and
every `verify --suite`; the text corpus covers every subcommand, nested
mappings, lists of scalars, lists of lists and an empty list.
One command of each subcommand also runs in a fresh interpreter under
`python -O` and a random PYTHONHASHSEED.  `test_reach.py` runs both
corpora.  Regenerate both (only when an output
change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ttspec import cli, verify

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = Path(__file__).parent.parent / "schemas" / "envelope.schema.json"

COMMANDS = {
    "kmw_table_q3": ["kmw", "table", "--q", "3", "--range=-3..3"],
    "kmw_table_q5": ["kmw", "table", "--q", "5", "--range=-3..3"],
    "kmw_table_q9": ["kmw", "table", "--q", "9", "--range=-2..2"],
    "kmw_reduce_q7": ["kmw", "reduce", "--q", "7", "--word", "eta[2] + h + [3][5]"],
    "kmw_reduce_q9": ["kmw", "reduce", "--q", "9", "--word", "eta^2[w][w^3] - [w^5] + 3"],
    "witt_classify_q5": ["witt", "classify", "--q", "5", "--form", "1,2,3"],
    "witt_classify_q7": ["witt", "classify", "--q", "7", "--form", "1,1,1"],
    "witt_classify_q9": ["witt", "classify", "--q", "9", "--form", "1,2"],
    "gw_q3": ["gw", "--q", "3"],
    "gw_q9": ["gw", "--q", "9"],
    "gw_q13": ["gw", "--q", "13"],
    "milnor_q5": ["milnor", "--q", "5", "--n", "1"],
    "milnor_q9": ["milnor", "--q", "9", "--n", "2"],
    "spech_q3": ["spech", "--q", "3", "--prime-bound", "20"],
    "spech_q5": ["spech", "--q", "5", "--prime-bound", "10"],
    "motive_decompose": ["motive", "decompose", "--space", "P2xP1"],
    "motive_hom": ["motive", "hom", "--space", "P1", "--target-space", "P2", "--twist", "1"],
    "motive_dual": ["motive", "dual", "--space", "P2", "--twist", "1"],
    "motive_pairing": ["motive", "pairing", "--space", "P1xP1"],
    "motive_hom_product": ["motive", "hom", "--space", "P2xP1xP1", "--target-space", "P1xP2", "--twist", "1"],
    "motive_pairing_product": ["motive", "pairing", "--space", "P2xP1xP1"],
    "spc_tate": ["spc", "tate", "--twist-radius", "3", "--shift-radius", "2"],
    "spc_shtop": ["spc", "sh-top", "--primes", "3", "--height", "2", "--dot"],
    "spc_equivariant": ["spc", "equivariant", "--n", "6", "--primes", "2", "--height", "1"],
    **{
        f"verify_{suite}": ["verify", "--suite", suite]
        for suite in ("tables", "witt", "ses", "spech", "eta", "motives", "tate", "spaces")
    },
}

# commands whose text stdout (no `--json`) is golden, as <name>.txt
TEXT_COMMANDS = {
    "text_gw_q3": ["gw", "--q", "3"],
    "text_witt_classify_q7": ["witt", "classify", "--q", "7", "--form", "1,1,1"],
    "text_kmw_table_q3": ["kmw", "table", "--q", "3", "--range=-1..1"],
    "text_spc_shtop": ["spc", "sh-top", "--primes", "3", "--height", "2"],
    "text_kmw_reduce_q7": ["kmw", "reduce", "--q", "7", "--word", "eta[2] + h"],
    "text_milnor_q5": ["milnor", "--q", "5", "--n", "1"],
    "text_spech_q3": ["spech", "--q", "3", "--prime-bound", "20"],
    "text_motive_decompose": ["motive", "decompose", "--space", "P2xP1"],
    "text_motive_pairing": ["motive", "pairing", "--space", "P1xP1"],
    "text_spc_tate": ["spc", "tate", "--twist-radius", "3", "--shift-radius", "2"],
    "text_spc_equivariant": ["spc", "equivariant", "--n", "6", "--primes", "2", "--height", "1", "--dot"],
    "text_verify_witt": ["verify", "--suite", "witt"],
}


def _json_stdout(capsys, argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_corpus_covers_every_subcommand_and_suite():
    parser_commands = {argv[0] for argv in COMMANDS.values()}
    assert parser_commands == {"kmw", "witt", "gw", "milnor", "spech", "motive", "spc", "verify"}
    suites = {argv[2] for argv in COMMANDS.values() if argv[0] == "verify"}
    assert suites == set(verify.SUITES)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(TEXT_COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(capsys, name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert _json_stdout(capsys, COMMANDS[name]) == want


@pytest.mark.parametrize("name", sorted(TEXT_COMMANDS))
def test_golden_text_output(capsys, name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert cli.main(TEXT_COMMANDS[name]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_envelope_schema(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text())
    jsonschema.validate(json.loads((GOLDEN / f"{name}.json").read_text()), schema)


def _leaf(argv):
    """The subcommand an argv runs: `kmw table`, `gw`, ..."""
    return " ".join(argv[:2]) if argv[0] in ("kmw", "witt") else argv[0]


def test_golden_in_fresh_processes_under_optimize_and_a_random_hash_seed():
    """The first golden command of each leaf subcommand, each in its own
    interpreter under `python -O` and one drawn PYTHONHASHSEED, prints its
    golden file byte for byte."""
    seed = str(random.randrange(2 ** 32))
    firsts = {}
    for name, argv in COMMANDS.items():
        firsts.setdefault(_leaf(argv), name)
    assert len(firsts) == 9
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    procs = {
        name: subprocess.Popen([sys.executable, "-O", "-m", "ttspec.cli", *COMMANDS[name], "--json"],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for name in firsts.values()
    }
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b""), (name, seed)
        assert out == (GOLDEN / f"{name}.json").read_bytes(), f"{name} differs under PYTHONHASHSEED={seed}"


def _regenerate():
    from contextlib import redirect_stdout
    from io import StringIO

    GOLDEN.mkdir(exist_ok=True)
    runs = [(f"{name}.json", [*argv, "--json"]) for name, argv in COMMANDS.items()]
    runs += [(f"{name}.txt", argv) for name, argv in TEXT_COMMANDS.items()]
    for filename, argv in runs:
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{filename}: exit code {code}")
        (GOLDEN / filename).write_text(buf.getvalue())


if __name__ == "__main__":
    _regenerate()
