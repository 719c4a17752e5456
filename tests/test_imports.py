import ast
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wigsim"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # the package's __init__.py imports in order to re-export, so it is not
    # checked; the tests are
    found = {
        f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path != SRC / "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def private_imports(source: str) -> list:
    """Underscore names a module imports from another wigsim module."""
    tree = ast.parse(source)
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "wigsim")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_no_private_imports_across_modules():
    # a private name belongs to its module; another module that needs it
    # needs a public one
    found = {path.name: private_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def dense_meshgrids(source: str) -> list:
    """Line numbers of np.meshgrid calls that do not pass sparse=True."""
    tree = ast.parse(source)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "meshgrid"
        and not any(
            kw.arg == "sparse" and getattr(kw.value, "value", None) is True
            for kw in node.keywords
        )
    ]


def test_meshgrids_are_sparse():
    # a dense meshgrid holds one array per axis at full field size; blocked
    # loops build their coordinates from open meshes or row-block indices
    found = {path.name: dense_meshgrids(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def block_size_reads(source: str, owner: str = None) -> list:
    """Line numbers reading _BLOCK_POINTS outside the function named owner."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == owner
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            (isinstance(node, ast.Name) and node.id == "_BLOCK_POINTS"
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "_BLOCK_POINTS")
        )
    ]


def test_only_row_blocks_reads_the_block_size():
    # one row-block policy: every blocked loop takes its blocks from
    # grids.row_blocks and never sizes its own from the constant
    found = {
        path.name: block_size_reads(
            path.read_text(), "row_blocks" if path.name == "grids.py" else None
        )
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    sized_by_hand = "rows = _BLOCK_POINTS // n\ndef row_blocks(shape):\n    return _BLOCK_POINTS\n"
    assert block_size_reads(sized_by_hand, "row_blocks") == [1]


def test_import_wigsim_leaves_out_the_cli_and_the_self_checks():
    # the benchmark's setup time includes `import wigsim`; the CLI and the
    # validate table load only when a command needs them, the CSV writer's
    # and reader's tables on their first call, and exact arithmetic needs
    # no fractions or decimal
    *loaded, written, read = subprocess.run(
        [sys.executable, "-c", "import sys, wigsim; print(*sys.modules, "
         "wigsim.grids._sci_tables.cache_info().currsize, "
         "wigsim.grids._sci_read_tables.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.split()
    assert "wigsim.states" in loaded
    assert "wigsim.cli" not in loaded and "wigsim.validation" not in loaded
    assert "fractions" not in loaded and "decimal" not in loaded
    assert written == read == "0"
