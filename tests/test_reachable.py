"""Every public module-level function and class of the package is reached
from outside its own definition: by the package, a demo or a bench case.
No body in the package is written out as bits by hand.  And the layers
below the machine import none of it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "depthlab"

# the names that only tests reach, each kept for the reason given
KEPT: dict = {}


def test_every_public_definition_is_reached_or_kept_for_a_reason():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for folder in (PACKAGE, ROOT / "demos", ROOT / "bench")
               for path in sorted(folder.rglob("*.py"))}
    unreached = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line)
                       for other, lines in sources.items()
                       for number, line in enumerate(lines, 1)
                       if not (other == path and number in own)):
                unreached.add(node.name)
    assert unreached == set(KEPT)


def test_no_body_is_written_as_a_bit_literal():
    # INSTRUCTION_CODES alone holds the instruction layout, so the package
    # writes a body with assemble, not as a literal of 0/1 characters;
    # docstrings may still show bits
    literals = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        prose = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        literals += [(str(path.relative_to(PACKAGE)), node.lineno, node.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and id(node) not in prose and len(node.value) >= 4
                     and not node.value.strip("01")]
    assert literals == []


def _package_imports(tree, at_load):
    """The package modules that tree imports, by their dotted name under
    the package: every one, or with at_load only those imported when the
    module loads, not in a function body or an `if TYPE_CHECKING:` block."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if at_load and (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                        or isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] for alias in node.names
                         if alias.name.split(".")[0] == "depthlab")
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            under = node.module or ""
        elif (node.module or "").split(".")[0] == "depthlab":
            under = node.module.partition(".")[2]
        else:
            continue
        # `from . import toyvm` names its modules after the import
        found.update([under] if under else [alias.name for alias in node.names])
    return found


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def test_the_command_line_and_the_betting_layer_import_no_machine():
    # bits is the leaf below everything; cli imports only it, and
    # randomness reaches the machine only from the functions that run it,
    # so a space-lemma run compiles neither toyvm nor complexity
    machine = {"toyvm", "complexity"}
    assert _package_imports(_tree("bits.py"), at_load=False) == set()
    assert _package_imports(_tree("cli.py"), at_load=False) & machine == set()
    assert _package_imports(_tree("randomness.py"), at_load=True) & machine == set()


def test_the_oracle_layers_import_only_what_they_run():
    # forcing runs the machine and its branching oracle, both in toyvm, and
    # reads complexity's deficiency only inside join_check, so a force run
    # compiles no complexity; the oracle measures read no martingale, so
    # measure-cheap and avg compile no randomness
    assert _package_imports(_tree("pi01forcing.py"), at_load=True) & {"complexity"} == set()
    assert _package_imports(_tree("semimeasure.py"), at_load=False) & {"randomness"} == set()


def test_the_numbering_and_the_layers_on_it_import_only_what_they_run():
    # toyvm reaches the numbering only where parse_oracle reads a halting:
    # descriptor, so a run under any other oracle compiles no phi; the
    # DNC_2 and depth-profile layers import no forcing loop, builder or
    # martingale, so join-check and profile compile none of them, and dnc
    # reads complexity only inside join_check, as force loads dnc
    toyvm = _tree("toyvm.py")
    parse_oracle = next(node for node in toyvm.body
                        if isinstance(node, ast.FunctionDef) and node.name == "parse_oracle")
    toyvm.body.remove(parse_oracle)
    assert "numbering" in _package_imports(parse_oracle, at_load=False)
    assert "numbering" not in _package_imports(toyvm, at_load=False)
    above = {"pi01forcing", "constructions", "randomness"}
    assert _package_imports(_tree("dnc.py"), at_load=True) & (above | {"complexity"}) == set()
    assert _package_imports(_tree("depth.py"), at_load=True) & above == set()
