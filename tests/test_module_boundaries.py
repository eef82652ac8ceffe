"""No package module reads another package module's private names.

A rule that several modules share has one owner module, and the others reach
it through a public name. The scan walks the AST of every module of the
package and reports ``<module>._name`` where ``<module>`` is a package module
bound by an import, and ``from .<module> import _name``. Dunder names are
public.
"""
import ast
from pathlib import Path

import quakeroute

PACKAGE = "quakeroute"
SOURCES = sorted(Path(quakeroute.__file__).parent.glob("*.py"))
MODULES = {path.stem for path in SOURCES} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def reach_ins(source: str, filename: str = "<source>") -> list[str]:
    """Each ``file:line module._name`` in ``source`` that reads a private name of a
    package module, in source order; an import anywhere in the file binds a name."""
    tree = ast.parse(source, filename)
    modules = {}  # local name -> the package module it is bound to
    found = []  # (line, column, module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if len(parts) == 2 and parts[0] == PACKAGE and alias.asname:
                    modules[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            dotted = ".".join(filter(None, [PACKAGE if node.level else "", node.module]))
            for alias in node.names:
                if dotted == PACKAGE and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif dotted.startswith(PACKAGE + ".") and _private(alias.name):
                    found.append((node.lineno, node.col_offset, dotted.split(".")[1], alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                found.append((node.lineno, node.col_offset, modules[value.id], node.attr))
            elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                  and value.value.id == PACKAGE and value.attr in MODULES):
                found.append((node.lineno, node.col_offset, value.attr, node.attr))
    return [f"{filename}:{line} {module}.{name}" for line, _, module, name in sorted(found)]


def test_no_module_reads_another_modules_private_names():
    found = [line for path in SOURCES
             for line in reach_ins(path.read_text(), path.name)]
    assert not found, "\n".join(found)


def test_the_scan_finds_every_form_of_reach_in():
    source = "\n".join([
        "from . import features as feat, oracle",
        "import quakeroute.qsim as qs",
        "import quakeroute.neural",
        "from .dyngraph import _on_graph, read_json",
        "from quakeroute.hybrid import _private_rule",
        "def f(args, world):",
        "    from . import cli",
        "    feat._SAMPLE, oracle._TIE_EPS, qs._Section, cli._resolve_seed",
        "    quakeroute.neural._helper",
        "    feat.__name__, feat.N_BLOCKS, args._actions, world._d_epi",
    ])
    assert reach_ins(source) == [
        "<source>:4 dyngraph._on_graph",
        "<source>:5 hybrid._private_rule",
        "<source>:8 features._SAMPLE",
        "<source>:8 oracle._TIE_EPS",
        "<source>:8 qsim._Section",
        "<source>:8 cli._resolve_seed",
        "<source>:9 neural._helper",
    ]
