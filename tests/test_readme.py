"""The README's library example runs and shows what it computes."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The python block of the README's "Library quick start" section."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _shown(lines, node):
    """The literal a comment gives as the value of the expression ``node``:
    the comment on its last line, else the one on the line after it, up
    to a dash that starts a remark."""
    rest = lines[node.end_lineno - 1][node.end_col_offset :].strip()
    if not rest:
        rest = lines[node.end_lineno].strip()
    assert rest.startswith("#"), rest
    return ast.literal_eval(rest[1:].split(" — ")[0].strip())


def test_library_quick_start_gives_the_results_it_shows():
    block = _quick_start()
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            assert value == _shown(lines, node), ast.unparse(node)
            checked.append(value)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == [
        False,
        "1 . . / . 1 . / . . (1)",
        (28, 72),
        ["I (2,2)", "I (3,3)", "II (1,1) (2,2)", "V (1,2) (3,3)", "V (2,1) (3,2)"],
    ]
    # "and False the other way: incomparable"
    assert namespace["rk_leq_dec"](namespace["y"], namespace["x"]) is False
