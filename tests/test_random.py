"""The seeded-generator helper: it alone reaches ``numpy.random``, and it
imports it without OpenSSL only where hashlib has every built-in digest."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgme
from dgme import _random


def _annotations(tree):
    """ids of every node inside an annotation of ``tree``."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            roots += [arg.annotation for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                 args.vararg, args.kwarg) if arg is not None]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _is_numpy_random(name):
    return name == "numpy.random" or name.startswith("numpy.random.")


def _names_numpy_random(node):
    """Whether ``node`` imports or reads ``numpy.random`` (``np.random``)."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(_is_numpy_random(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return _is_numpy_random(module) or (
            module == "numpy" and any(alias.name == "random" for alias in node.names))
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and _is_numpy_random(
        node.value)


def test_only_the_helper_names_numpy_random():
    # a module that imported numpy.random before the helper's first call
    # would map OpenSSL again; annotations are never evaluated
    namers = set()
    for path in Path(dgme.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        skip = _annotations(tree)
        if any(_names_numpy_random(node) for node in ast.walk(tree) if id(node) not in skip):
            namers.add(path.name)
    assert namers == {"_random.py"}


# hides the built-in module named by argv[1] (none if empty), draws from the
# helper, then prints the draws, a SHA-512 digest and whether OpenSSL's
# _hashlib is loaded
_HIDDEN_DIGEST_PROBE = ("import json, sys\n"
                        "if sys.argv[1]:\n"
                        "    sys.modules[sys.argv[1]] = None\n"
                        "from dgme._random import default_rng\n"
                        "draws = default_rng(7).random(4).tolist()\n"
                        "import hashlib\n"
                        "print(json.dumps([draws, hashlib.sha512(b'dgme').hexdigest(),\n"
                        "                  '_hashlib' in sys.modules]))\n")


# hashlib takes blake2 from _blake2 even with OpenSSL, so hiding that one
# logs an error whatever the helper does
@pytest.mark.parametrize("hidden", ["", *(name for name in _random.BUILTIN_DIGESTS
                                          if name != "_blake2")])
def test_helper_keeps_stream_and_digests_with_a_builtin_digest_missing(hidden):
    # without a built-in module hashlib would log an error at import and
    # lack that digest for the process, so the helper leaves _hashlib be
    env = dict(os.environ, PYTHONPATH=str(Path(dgme.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _HIDDEN_DIGEST_PROBE, hidden], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    draws, sha512, openssl = json.loads(child.stdout)
    assert draws == np.random.default_rng(7).random(4).tolist()
    assert sha512 == hashlib.sha512(b"dgme").hexdigest()
    if not hidden:
        assert not openssl
