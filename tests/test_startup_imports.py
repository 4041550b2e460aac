"""Each command loads only the modules it runs, and starts cheaply.

The commands run in fresh interpreters, so `sys.modules` shows exactly what
one command line imported.  `hashlib` maps OpenSSL's libcrypto, which costs
every process a few MB of resident memory; no command needs it, also not
with a cache directory, whose files are named by their campaign keys.
`binforms.cache` itself loads only when a command is given `--cache-dir`.
`binforms.cli` sets `OPENBLAS_THREAD_TIMEOUT` before numpy loads, unless the
caller has set it, so that OpenBLAS's idle worker thread sleeps at once.
Records are named tuples, not dataclasses: `dataclasses` generates and
`exec`s source text for every decorated class, at every start-up.  The
imports of `binforms.cli` run no cyclic garbage collection, and the only
exact (`prime=None`) weight tables a command asks for are those of `hsop
check`'s nullform check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Runs `binforms.cli.main(argv)` and prints the exit code and the sorted
# names in `sys.modules`.
SCRIPT = """
import contextlib, io, json, sys
import binforms.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = binforms.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

BASIS = ("basis", "--n", "9", "--max-degree", "8", "--json")
HSOP_CHECK = ("hsop", "check", "--n", "9", "--set", "thm", "--trials", "2", "--json")


def run_script(tmp_path, script, *argv):
    """The JSON line a fresh interpreter running `script` with `argv` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_command(tmp_path, *argv):
    result = run_script(tmp_path, SCRIPT, *argv)
    assert result["code"] == 0
    return result


def test_basis_loads_neither_hashlib_nor_catalog_multipoly_or_csv(tmp_path):
    modules = set(run_command(tmp_path, *BASIS)["modules"])
    assert "binforms.pipeline" in modules
    loaded = modules & {
        "hashlib", "_hashlib", "binforms.cache", "binforms.catalog", "binforms.multipoly", "csv",
        "dataclasses",
    }
    assert not loaded


def test_hsop_check_without_a_cache_loads_no_hashlib(tmp_path):
    modules = set(run_command(tmp_path, *HSOP_CHECK)["modules"])
    assert "binforms.catalog" in modules
    assert not modules & {"hashlib", "_hashlib", "binforms.cache", "dataclasses"}


def test_cache_directory_loads_no_hashlib_and_names_files_by_key(tmp_path):
    cache = tmp_path / "cache"
    result = run_command(tmp_path, *BASIS, "--cache-dir", str(cache))
    assert "binforms.cache" in result["modules"]
    assert not set(result["modules"]) & {"hashlib", "_hashlib"}
    # The key is (n, prime, seed, --points-margin).
    assert {p.name for p in cache.iterdir()} == {"campaign-9_32003_1_10.json"}


# Counts the cyclic collections `import binforms.cli` runs, in all and while
# the module's own code is on the stack (its imports), then reports whether
# collection is on afterwards and how many objects are frozen.  The first
# argument says whether collection is on before the import.
PAUSE_SCRIPT = """
import gc, json, sys
from pathlib import Path

collections = {"all": 0, "module": 0}

def count(phase, info):
    if phase != "start":
        return
    collections["all"] += 1
    frame = sys._getframe()
    while frame is not None:
        if Path(frame.f_code.co_filename).parts[-2:] == ("binforms", "cli.py"):
            collections["module"] += 1
            break
        frame = frame.f_back

gc.callbacks.append(count)
if sys.argv[1] == "off":
    gc.disable()
import binforms.cli
print(json.dumps({**collections, "enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


def test_cli_imports_run_no_collection_and_freeze_their_heap(tmp_path):
    # numpy's and binforms' imports allocate some 34,000 objects that live as
    # long as the process; collecting among them during the imports cost 35
    # collections.  Compiling cli.py itself from source (without a bytecode
    # cache) happens before its first line runs, so only collections under
    # the module's code are pinned at 0.
    got = run_script(tmp_path, PAUSE_SCRIPT, "on")
    assert got["module"] == 0
    assert got["enabled"] and got["frozen"] > 0


def test_cli_import_leaves_a_disabled_collector_disabled(tmp_path):
    got = run_script(tmp_path, PAUSE_SCRIPT, "off")
    assert got["all"] == 0
    assert not got["enabled"] and got["frozen"] > 0


# Runs `binforms.cli.main(argv)` with `batch.band` wrapped, and prints the
# number of calls and, for each call that asks for the exact table
# (`prime=None`), whether `vanish_on_nullcone_sample` is on the stack.  No
# other module binds `band`, so the wrap sees every caller.
BAND_SCRIPT = """
import contextlib, io, json, sys
import binforms.cli
from binforms import batch

calls, exact = [], []
original = batch.band

def spy(*args):
    calls.append(1)
    if args[3] is None:
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        exact.append("vanish_on_nullcone_sample" in names)
    return original(*args)

binders = [
    name for name, module in sys.modules.items()
    if name.startswith("binforms.") and vars(module).get("band") is original
]
assert binders == ["binforms.batch"], binders
batch.band = spy
with contextlib.redirect_stdout(io.StringIO()):
    code = binforms.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "calls": len(calls), "exact": exact}))
"""


def test_prime_field_tables_never_build_the_integer_table(tmp_path):
    # `basis` ranks only F_p values, so it never asks `band` for the exact
    # table; `hsop check` asks for it only in its exact nullform check.
    basis = run_script(tmp_path, BAND_SCRIPT, *BASIS)
    assert basis["code"] == 0 and basis["calls"] > 0 and basis["exact"] == []
    check = run_script(tmp_path, BAND_SCRIPT, *HSOP_CHECK)
    assert check["code"] == 0 and check["exact"] and all(check["exact"])


# Imports the module named by the first argument and prints the value of
# `OPENBLAS_THREAD_TIMEOUT` at numpy's first import event (numpy loads
# OpenBLAS, which reads the variable once) and afterwards.
BLAS_SCRIPT = """
import importlib, json, os, sys

seen = []

def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.addaudithook(hook)
importlib.import_module(sys.argv[1])
print(json.dumps({
    "imported_numpy": bool(seen),
    "at_numpy": seen[0] if seen else None,
    "after": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
}))
"""


@pytest.mark.parametrize(
    "module, caller, want",
    [
        ("binforms.cli", None, "4"),
        ("binforms.cli", "30", "30"),
        ("binforms.pipeline", None, None),
    ],
    ids=["cli-sets-it", "cli-keeps-the-callers", "pipeline-leaves-it-unset"],
)
def test_blas_thread_timeout_before_numpy_loads(tmp_path, monkeypatch, module, caller, want):
    if caller is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", caller)
    got = run_script(tmp_path, BLAS_SCRIPT, module)
    assert got == {"imported_numpy": True, "at_numpy": want, "after": want}
