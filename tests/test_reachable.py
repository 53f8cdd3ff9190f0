"""Every public module-level function and class of the package is reached
from outside its own definition: by the package, a demo or a bench case.
And no body in the package is written out as bits by hand."""

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
