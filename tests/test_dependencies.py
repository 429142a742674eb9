"""The declared runtime dependencies are exactly the third-party imports, and
none of them loads before the code that uses it runs."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Distribution names whose import name differs.
IMPORT_NAME = {"pyyaml": "yaml"}


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "cotloop").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cotloop"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    assert {IMPORT_NAME.get(n, n) for n in names} == _third_party_imports()


COLD_START = """
import json, os, sys, tempfile
import cotloop, cotloop.cli

def loaded():
    return sorted(m for m in ("numpy", "requests", "yaml", "scipy", "concurrent.futures",
                              "http.client") if m in sys.modules)

steps = [loaded()]
from cotloop.backends import CueWorld, RemoteBackend

class Session:
    def post(self, url, json=None, headers=None, timeout=None):
        raise OSError("not posted")

RemoteBackend(endpoint="http://localhost:9/v1/chat", model="m", session=Session())
steps.append(loaded())
RemoteBackend(endpoint="http://localhost:9/v1/chat", model="m")
steps.append(loaded())
from cotloop import audit
world = CueWorld(num_samples=2, cues_per_sample=2, vocab_size=4)
audit.corrupt_dataset([s.as_sample() for s in world.samples], 0.5, seed=0)
steps.append(loaded())
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "config.yaml")
    with open(path, "w") as f:
        f.write("seed: 3\\n")
    assert cotloop.cli._load_config(path) == {"seed": 3}
steps.append(loaded())
print(json.dumps(steps))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_each_heavy_dependency_loads_where_it_is_first_used():
    """Importing the CLI loads none of numpy, requests, PyYAML, scipy,
    concurrent.futures or http.client; a remote backend given a session loads
    nothing, one that builds its own loads http.client, and --config loads
    PyYAML; label corruption loads nothing, and numpy, requests and
    concurrent.futures are loaded at no step."""
    out = run_python(COLD_START)
    assert json.loads(out.stdout) == [[], [], ["http.client"], ["http.client"],
                                      ["http.client", "yaml"]]


AUDIT_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from cotloop.cli import cli_dispatch

runs = []
for config in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append([cli_dispatch(["audit", "--config", config]), out.getvalue()])
print(json.dumps(runs))
"""


def test_the_audit_runs_without_numpy(tmp_path, capsys):
    """The audit CLI needs no numpy, on either task kind, and reports the text
    of a run that could import it."""
    from cotloop.cli import cli_dispatch

    configs, expected = [], []
    for kind in ("classification", "detection"):
        config = tmp_path / f"{kind}.yaml"
        config.write_text(f"world: {{kind: {kind}, num_samples: 10, cues_per_sample: 4, "
                          "vocab_size: 24, seed: 0}\ngroup_size: 2\n")
        configs.append(str(config))
        expected.append([cli_dispatch(["audit", "--config", str(config)]),
                         capsys.readouterr().out])
    assert json.loads(run_python(AUDIT_WITHOUT_NUMPY, *configs).stdout) == expected
    assert [code for code, _ in expected] == [0, 0]


NO_ANSWER_PATTERN_AT_SETUP = """
import json
import cotloop.cli
from cotloop import textproto
from cotloop.backends import CueWorld, SyntheticReasonBackend, SyntheticReconBackend

world = CueWorld(num_samples=4, cues_per_sample=4, vocab_size=48, seed=0)
SyntheticReasonBackend(world), SyntheticReconBackend(world)
sizes = [textproto._map_re.cache_info().currsize]
textproto.ParsedOutput.from_text("<answer>{}</answer>", world.task)
sizes.append(textproto._map_re.cache_info().currsize)
print(json.dumps(sizes))
"""


def test_setup_compiles_no_answer_pattern():
    """A task's answer pattern is compiled on its first parse, so its cost
    (milliseconds per task) stays out of importing the CLI and building a world."""
    assert json.loads(run_python(NO_ANSWER_PATTERN_AT_SETUP).stdout) == [0, 1]


_ANSWER_TAG_RE = re.compile(r"</?(?:think|answer)>", re.IGNORECASE)


def test_only_textproto_writes_answer_tags():
    """No module but `textproto` holds a `<think>`/`<answer>` tag in a string
    literal (docstrings aside): every output in the tags is `format_answer`'s."""
    found = []
    for path in sorted((ROOT / "src" / "cotloop").rglob("*.py")):
        if path.name == "textproto.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings and _ANSWER_TAG_RE.search(node.value)]
    assert found == []


def test_no_module_reads_literals_with_ast():
    """No module imports `ast` or calls `literal_eval`: answers are read by the
    answer grammar's patterns alone, which need no lock across threads."""
    found = []
    for path in sorted((ROOT / "src" / "cotloop").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]] + [a.name for a in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in ("ast", "literal_eval")]
    assert found == []


def test_only_the_jsonl_reader_and_writer_open_files():
    """Within `pipeline`, `open` is called once in `_read_jsonl` and once in
    `_write_jsonl` and nowhere else: one reader decides where a file's
    complete lines end, and one writer writes every cotloop file."""
    tree = ast.parse((ROOT / "src" / "cotloop" / "pipeline.py").read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        found += [getattr(top, "name", f"line {top.lineno}") for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "open"
                       or getattr(node.func, "attr", None) == "open")]
    assert found == ["_write_jsonl", "_read_jsonl"]
