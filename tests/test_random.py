"""The OpenSSL guard in ``cli.main``: a command that draws numbers blocks
``_hashlib`` only where hashlib has every built-in digest, and draws the
same numbers either way."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgme
from dgme import cli

# hides the built-in module named by argv[1] (none if empty), runs the
# command of the argv list given as JSON in argv[2], then prints a SHA-512
# digest and whether OpenSSL's _hashlib was loaded when the command returned
_HIDDEN_DIGEST_PROBE = ("import json, sys\n"
                        "if sys.argv[1]:\n"
                        "    sys.modules[sys.argv[1]] = None\n"
                        "import dgme.cli\n"
                        "assert dgme.cli.main(json.loads(sys.argv[2])) == 0\n"
                        "openssl = '_hashlib' in sys.modules\n"
                        "import hashlib\n"
                        "print(json.dumps([hashlib.sha512(b'dgme').hexdigest(), openssl]))\n")


def _synth(out):
    return ["synth", "--classes", "pan,zoom", "--per-class", "1", "--domain", "historical",
            "--size", "32", "--frames", "3", "--out", str(out)]


def _files(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


# "helper": the guard in main, once a helper around numpy.random's import.
# hashlib takes blake2 from _blake2 even with OpenSSL, so hiding that one
# logs an error whatever the guard does
@pytest.mark.parametrize("hidden", ["", *(name for name in cli.BUILTIN_DIGESTS
                                          if name != "_blake2")])
def test_helper_keeps_stream_and_digests_with_a_builtin_digest_missing(tmp_path, capsys, hidden):
    # without a built-in module hashlib would log an error at import and
    # lack that digest for the process, so main leaves _hashlib be
    assert cli.main(_synth(tmp_path / "reference")) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(dgme.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _HIDDEN_DIGEST_PROBE, hidden,
                            json.dumps(_synth(tmp_path / "corpus"))],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    sha512, openssl = json.loads(child.stdout.splitlines()[-1])
    assert _files(tmp_path / "corpus") == _files(tmp_path / "reference")
    assert sha512 == hashlib.sha512(b"dgme").hexdigest()
    if not hidden:
        assert not openssl
