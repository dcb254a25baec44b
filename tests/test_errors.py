import ast
from pathlib import Path

import pytest

from acldp.errors import MEMORY_BYTES, ConfigurationError, check_bytes

SRC = Path(__file__).parents[1] / "src" / "acldp"


class TestMemoryBudget:
    def test_the_budget_itself_is_admitted(self):
        check_bytes("a family at the budget", MEMORY_BYTES)
        with pytest.raises(ConfigurationError,
                           match=rf"^7 widgets take {MEMORY_BYTES + 1} bytes, more than "
                                 rf"the budget MEMORY_BYTES={MEMORY_BYTES}$"):
            check_bytes("7 widgets", MEMORY_BYTES + 1)

    def test_no_other_byte_cap(self):
        """errors.MEMORY_BYTES is the one byte cap and check_bytes its one
        comparison: no other module defines a *_BYTES constant, compares
        against an integer literal of 2**20 or more or a power of literals
        (2 ** 28), or compares against MEMORY_BYTES itself."""
        def literal_cap(node):
            return ((isinstance(node, ast.Constant) and type(node.value) is int
                     and abs(node.value) >= 2 ** 20)
                    or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                        and isinstance(node.left, ast.Constant)
                        and isinstance(node.right, ast.Constant)))

        def names_budget(node):
            return ((isinstance(node, ast.Name) and node.id == "MEMORY_BYTES")
                    or (isinstance(node, ast.Attribute) and node.attr == "MEMORY_BYTES"))

        offenders = []
        for src in sorted(SRC.glob("*.py")):
            if src.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(src.read_text())):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                offenders += [f"{src.name}:{node.lineno} defines {t.id}" for t in targets
                              if isinstance(t, ast.Name) and t.id.endswith("_BYTES")]
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(literal_cap(n) or names_budget(n)
                           for op in operands for n in ast.walk(op)):
                        offenders.append(f"{src.name}:{node.lineno} compares against a cap")
        assert offenders == []
