"""Input fuzz: one mutated leaf or key of a valid input file, through ``cli.run``.

Each case starts from a small valid graph, checkpoint or dataset file. It
replaces one value of the file's JSON (a leaf, or a whole object or list) by
NaN, an infinity, +/-1e308, 2**63, a string, null or a list, deletes one key or
list item, or truncates the file. Then it runs the subcommand that reads the
file: ``eval`` for a graph or a checkpoint, ``train`` for a dataset. Whatever
the input, ``run`` returns 0, 1 or 2 and raises nothing; on 1, stderr starts
with ``error:``; on 0, every number in the output files is finite. A 4x4 city,
two scenarios and one epoch keep a case to tens of milliseconds.
"""
import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quakeroute.dyngraph as dg
import quakeroute.features as ft
import quakeroute.hybrid as hy
from quakeroute.cli import run

EXAMPLES = 40  # per file kind
VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 2**63, "x", None, [0.5]]
DELETE, TRUNCATE = "delete", "truncate"


@functools.cache
def _valid_files() -> dict[str, str]:
    """The text of each valid input file, by kind, made on first use."""
    graph = dg.synth_city(4, 4, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dg.save_graph(graph, tmp / "graph")
        hy.HybridModel(seed=0).save(tmp / "ckpt")
        ft.generate_dataset(graph, 2, seed=0).save_jsonl(tmp / "data")
        return {kind: (tmp / kind).read_text() for kind in ("graph", "ckpt", "data")}


def _mutate(draw, doc, mutation):
    """Replace one value below the top of ``doc`` by ``mutation``, or delete it.

    The value is found by a walk from the top: at each object or list the walk
    takes one of its keys or items, and stops there with chance 1/4, or at a
    leaf. So every value can be drawn, and a short array is as likely as a long
    one."""
    holder, key = None, None
    while isinstance(doc, (dict, list)) and doc and (holder is None or draw(st.integers(0, 3))):
        holder, key = doc, draw(st.sampled_from(list(doc) if isinstance(doc, dict)
                                                else range(len(doc))))
        doc = holder[key]
    if mutation == DELETE:
        del holder[key]
    else:
        holder[key] = mutation


@st.composite
def mutated_files(draw, kind):
    """The text of a ``kind`` file with one mutation; a dataset's is in one line."""
    text = _valid_files()[kind]
    mutation = draw(st.sampled_from(VALUES + [DELETE, TRUNCATE]))
    if mutation == TRUNCATE:
        return text[:draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines(keepends=True) if kind == "data" else [text]
    k = draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[k])
    _mutate(draw, doc, mutation)
    lines[k] = json.dumps(doc) + "\n"
    return "".join(lines)


def _numbers(doc):
    """Every number in a JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def _csv_numbers(text):
    """Every field of a CSV text that reads as a float, as that float."""
    found = []
    for cell in text.replace("\n", ",").split(","):
        with contextlib.suppress(ValueError):  # a header, a boolean or an empty field
            found.append(float(cell))
    return found


def _run_on(kind, text):
    """Run the subcommand that reads the ``kind`` file, holding ``text``, beside
    the other valid files; return the exit code, stderr, the text of each output
    file by name and every number in them."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, valid in _valid_files().items():
            (tmp / name).write_text(text if name == kind else valid)
        if kind == "data":
            argv = ["train", "--data", tmp / "data", "--epochs", "1", "--seed", "0",
                    "--out", tmp / "out.json", "--history-out", tmp / "history.json"]
        else:
            argv = ["eval", "--ckpt", tmp / "ckpt", "--graph", tmp / "graph", "--scenarios",
                    "2", "--seed", "0", "--out", tmp / "out.json", "--csv", tmp / "paths.csv"]
        err = io.StringIO()
        # an overflow warning is no failure: the exit code and the outputs tell
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = run([str(a) for a in argv])
        outputs = {p.name: p.read_text() for p in tmp.iterdir()
                   if p.name not in _valid_files()}
    numbers = [x for name, out in outputs.items()
               for x in (_csv_numbers(out) if name.endswith(".csv") else _numbers(json.loads(out)))]
    return code, err.getvalue(), outputs, numbers


@pytest.mark.parametrize("kind", ["graph", "ckpt", "data"])
@settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_input_file_exits_0_1_or_2_and_never_raises(kind, data):
    code, err, outputs, numbers = _run_on(kind, data.draw(mutated_files(kind)))
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.startswith("error:"), err
    if code == 0:
        assert outputs and all(math.isfinite(x) for x in numbers), outputs


@pytest.mark.parametrize("kind", ["graph", "ckpt", "data"])
def test_the_valid_files_run(kind):
    """The unmutated files exit 0, so a mutation is what makes a case fail."""
    code, err, outputs, numbers = _run_on(kind, _valid_files()[kind])
    assert code == 0, err
    assert {"out.json"} < outputs.keys() and numbers
