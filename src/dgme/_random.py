"""Seeded generators without OpenSSL.

``numpy.random`` imports ``secrets``, which imports ``hmac`` and
``hashlib``; both import ``_hashlib`` and so map OpenSSL's libcrypto, about
3.4 MB resident, into every command that draws numbers. dgme seeds every
generator and takes no digest from OpenSSL, so the first ``default_rng``
imports ``numpy.random`` with ``_hashlib`` blocked: ``hmac`` and
``hashlib`` then take their own ImportError fallback to CPython's built-in
digest modules, which give the same digests. It blocks it only while
neither ``_hashlib`` nor ``numpy.random`` is loaded and every built-in
digest module exists; without one, ``hashlib`` would log an error at import
and lack that digest for the whole process. This is the one module that
names ``numpy.random``.
"""

from __future__ import annotations

import importlib.util
import sys

# the modules hashlib's fallback constructors import
BUILTIN_DIGESTS = ("_md5", "_sha1",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")),
                   "_blake2", "_sha3")


def default_rng(seed: int):
    """``numpy.random.default_rng(seed)``, importing ``numpy.random``
    without OpenSSL the first time."""
    if "numpy.random" not in sys.modules:
        block = ("_hashlib" not in sys.modules
                 and all(importlib.util.find_spec(name) for name in BUILTIN_DIGESTS))
        if block:
            sys.modules["_hashlib"] = None
        try:
            import numpy.random
        finally:
            if block:
                sys.modules.pop("_hashlib", None)
    return sys.modules["numpy.random"].default_rng(seed)
