"""Each command loads only the modules it runs, and starts cheaply.

The commands run in fresh interpreters, so `sys.modules` shows exactly what
one command line imported.  `hashlib` maps OpenSSL's libcrypto, which costs
every process a few MB of resident memory; no command needs it, also not
with a cache directory, whose files are named by their point-set keys.
`binforms.cache` itself loads only when a command is given `--cache-dir`.
Records are named tuples, not dataclasses: `dataclasses` generates and
`exec`s source text for every decorated class, at every start-up.  The
imports of `binforms.cli` run no cyclic garbage collection, and a command's
weight tables never go through the per-pair Python table, also not the
exact ones of `hsop check`'s nullform check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs `binforms.cli.main(argv)` and prints the exit code, the point-set keys
# the run built and the sorted names in `sys.modules`.
SCRIPT = """
import contextlib, io, json, sys
import binforms.cli, binforms.pipeline

keys = []
init = binforms.pipeline.PointSet.__init__

def record(self, *args, **kwargs):
    init(self, *args, **kwargs)
    keys.append(self.key)

binforms.pipeline.PointSet.__init__ = record
with contextlib.redirect_stdout(io.StringIO()):
    code = binforms.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "keys": keys, "modules": sorted(sys.modules)}))
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
    files = {p.name for p in cache.iterdir()}
    names = {f"points-v2-{key.replace(':', '_')}.npy" for key in result["keys"]}
    assert files and files <= names


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


# Runs `binforms.cli.main(argv)` with `forms.integer_weights` wrapped, and
# prints, for each call, the caller's name and whether it passed a prime.
# `batch` must not bind the table at all, so the wrap sees every caller.
WEIGHTS_SCRIPT = """
import contextlib, io, json, sys
import binforms.cli
from binforms import batch, forms

calls = []
original = forms.integer_weights

def spy(*args):
    caller = sys._getframe(1)
    calls.append([caller.f_code.co_name, caller.f_locals.get("prime", "none given")])
    return original(*args)

assert not hasattr(batch, "integer_weights")
forms.integer_weights = spy
with contextlib.redirect_stdout(io.StringIO()):
    code = binforms.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "calls": calls}))
"""


def test_prime_field_tables_never_build_the_integer_table(tmp_path):
    # Every band table, F_p or exact (`prime=None`), comes from the
    # derivative factors; the per-pair Python table is only for
    # `forms.transvectant`, which neither command reaches.
    for argv in (BASIS, HSOP_CHECK):
        assert run_script(tmp_path, WEIGHTS_SCRIPT, *argv) == {"code": 0, "calls": []}
