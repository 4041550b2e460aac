"""Each command loads only the modules it runs.

The commands run in fresh interpreters, so `sys.modules` shows exactly what
one command line imported.  `hashlib` maps OpenSSL's libcrypto, which costs
every process a few MB of resident memory; no command needs it, also not
with a cache directory, whose files are named by their point-set keys.
Records are named tuples, not dataclasses: `dataclasses` generates and
`exec`s source text for every decorated class, at every start-up.
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


def run_command(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return result


def test_basis_loads_neither_hashlib_nor_catalog_multipoly_or_csv(tmp_path):
    modules = set(run_command(tmp_path, *BASIS)["modules"])
    assert "binforms.pipeline" in modules
    loaded = modules & {
        "hashlib", "_hashlib", "binforms.catalog", "binforms.multipoly", "csv", "dataclasses",
    }
    assert not loaded


def test_hsop_check_without_a_cache_loads_no_hashlib(tmp_path):
    modules = set(run_command(tmp_path, *HSOP_CHECK)["modules"])
    assert "binforms.catalog" in modules
    assert not modules & {"hashlib", "_hashlib", "dataclasses"}


def test_cache_directory_loads_no_hashlib_and_names_files_by_key(tmp_path):
    cache = tmp_path / "cache"
    result = run_command(tmp_path, *BASIS, "--cache-dir", str(cache))
    assert not set(result["modules"]) & {"hashlib", "_hashlib"}
    files = {p.name for p in cache.iterdir()}
    names = {f"points-v2-{key.replace(':', '_')}.npy" for key in result["keys"]}
    assert files and files <= names
