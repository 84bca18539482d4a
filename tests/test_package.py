import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import helpers

import lpackets
import lpackets.cli
import lpackets.commands

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
# The directory that holds the lpackets this suite imported: src/ in a
# checkout, site-packages for an installed wheel. Subprocesses import it too.
SRC = os.path.dirname(os.path.dirname(lpackets.__file__))

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
VERDICTS = {"keep", "fold", "move"}


def public_name_table() -> list[tuple[str, str, str]]:
    """(name, module, verdict) of each row of README's table of public
    names: the rows below its header and rule, up to the first line that
    is not a row."""
    with open(README) as handle:
        lines = handle.read().splitlines()
    rows = []
    for line in lines[lines.index("| Name | Module | Verdict | Reason |") + 2:]:
        if not line.startswith("|"):
            break
        name, module, verdict = (cell.strip().strip("`") for cell in line.split("|")[1:4])
        rows.append((name, module, verdict))
    return rows


def test_version_and_public_names():
    # Python 3.10 has no tomllib, so the version line is read by pattern.
    with open(PYPROJECT) as handle:
        declared = re.search(r'^version = "([^"]+)"$', handle.read(), re.M).group(1)
    assert lpackets.__version__ == declared == "0.15.0"
    rows = public_name_table()
    assert len({name for name, _, _ in rows}) == len(rows) > 0
    assert {verdict for _, _, verdict in rows} <= VERDICTS
    keep = {(module, name) for name, module, verdict in rows
            if verdict == "keep" and "." not in name}
    exported = {name for name, value in vars(lpackets).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(lpackets.__all__) == exported == {name for module, name in keep
                                                 if module != "cli"}
    assert set(lpackets.cli.__all__) == {name for module, name in keep if module == "cli"}
    assert lpackets.commands.__all__ == []
    for name, module, verdict in rows:
        owner = importlib.import_module(f"lpackets.{module}")
        if "." in name:
            # A method: its class is exported, and it is there unless it left.
            cls, method = name.split(".")
            assert hasattr(getattr(owner, cls), method) == (verdict == "keep"), name
        elif verdict == "keep":
            assert name in owner.__all__, name
        else:
            assert not hasattr(owner, name) and not hasattr(lpackets, name), name
            assert hasattr(helpers, name) == (verdict == "move"), name


def test_console_script_exits_quietly_when_the_reader_closes():
    # 21,000 constituents are far more than a pipe buffers, so the script
    # is still writing when the reader closes the pipe after one line.
    env = {**os.environ, "PYTHONPATH": SRC}
    args = ["branch", "--hw", "12,8,5,1,-3,-9,-14", "--format", "tsv"]
    with subprocess.Popen([sys.executable, "-m", "lpackets", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"lower\tu1\n"
        child.stdout.close()
        assert child.wait(timeout=60) == 1
        assert child.stderr.read() == b""


def test_cold_import_leaves_out_dataclasses_and_inspect():
    # Every cold `lpackets` request pays for what `lpackets.cli` imports;
    # -S keeps site packages out of the check.
    code = ("import sys, lpackets.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cold_request_leaves_out_argparse():
    # A request the option table reads builds no parser, so neither
    # argparse nor its gettext is imported; help still comes from argparse.
    code = ("import sys, lpackets.cli; "
            "code = lpackets.cli.main(['packet', '--sig', '2,1', '--hw', '2,1,0']); "
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.startswith("packet for sig (2,1)")
    assert run.stderr == "0 []\n"
    # The same request through the console path, read from -X importtime.
    timed = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "lpackets", "packet",
                            "--sig", "2,1", "--hw", "2,1,0"], env=env, check=True,
                           capture_output=True, text=True)
    imported = {line.rpartition("|")[2].strip() for line in timed.stderr.splitlines()}
    assert "lpackets.cli" in imported
    assert not {"argparse", "gettext"} & imported
    helped = subprocess.run([sys.executable, "-S", "-m", "lpackets", "packet", "-h"], env=env,
                            capture_output=True, text=True)
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: lpackets packet [-h]")


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names the module's imports bind, names it reads): a name is read
    in code, in an annotation (also one written as a string) or in
    `__all__`. A `*` import and `from __future__` bind no name here."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(name.id for name in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(name, ast.Name))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return imported, used


@pytest.mark.parametrize("path", sorted(Path(lpackets.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    imported, used = _imported_and_used(ast.parse(path.read_text()))
    assert sorted(imported - used) == []


def test_reference_module_imports_no_private_library_name():
    # tests/helpers.py holds the independent oracles: a private name of the
    # library there would let a reference share the code it checks.
    tree = ast.parse(Path(helpers.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lpackets")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, output lines) of each "$ lpackets ..." block under
    README's "Examples" heading, up to the next heading."""
    with open(README) as handle:
        lines = handle.read().splitlines()
    start = lines.index("### Examples")
    end = next(k for k in range(start + 1, len(lines)) if lines[k].startswith("#"))
    examples = []
    for k in range(start, end):
        if lines[k].startswith("$ lpackets "):
            block = lines[k + 1:lines.index("```", k)]
            examples.append((lines[k][2:], block))
    return examples


def test_readme_examples_match_the_command_line(capsys):
    examples = readme_examples()
    assert len(examples) == 7
    for command, block in examples:
        assert lpackets.cli.main(shlex.split(command)[1:]) == 0, command
        captured = capsys.readouterr()
        # main writes its warnings before its output, as a terminal shows them.
        assert captured.err.splitlines() + captured.out.splitlines() == block, command
