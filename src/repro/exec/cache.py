"""Deterministic on-disk memoization of scenario results.

A :class:`ResultCache` maps a *content hash* of everything that
determines a scenario's outcome to its pickled
:class:`~repro.core.report.NetworkEnergyResult`:

* the canonical serialization of the
  :class:`~repro.net.scenario.BanScenarioConfig` (recursively covering
  nested dataclasses, so the calibration constants, node specs,
  topology and loss model are all part of the key), and
* a *code-version salt*: a hash over the source text of every
  simulation-relevant ``repro`` subpackage, so any edit to the model
  invalidates the whole cache rather than silently serving stale
  energies.

Configs that embed arbitrary callables (e.g. a custom
``sync_policy_factory``) have no canonical serialization; hashing them
raises :class:`Uncacheable` and the executor simply runs them fresh,
counting the event in :class:`CacheStats`.

The simulator is deterministic — same config, same code, same result —
which is what makes content-addressed caching sound here.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

#: Bump to invalidate every existing cache entry on format changes.
SCHEMA_VERSION = 1

#: Subpackages whose source text feeds the code-version salt: everything
#: that can influence a simulated energy figure.  ``analysis`` is
#: deliberately absent — it only *consumes* results.  The lint's CFG001
#: and FPC rules read this tuple too, as the packages that feed the key.
SALTED_PACKAGES = ("core", "sim", "tinyos", "hw", "phy", "mac", "apps",
                   "signals", "net", "faults")

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


class Uncacheable(Exception):
    """Raised when a config has no canonical serialization.

    Typically because it embeds an arbitrary callable (custom
    ``sync_policy_factory``) or an object of a type the canonical
    encoder does not know to be value-like.
    """


def _encode(value: Any, out: list) -> None:
    """Append a canonical, unambiguous encoding of ``value`` to ``out``.

    Covers None, bools, ints, floats, strings, bytes, enums, sequences,
    mappings and (recursively) dataclasses.  Anything else — callables,
    open handles, arbitrary instances — raises :class:`Uncacheable`,
    because equality of such objects does not imply equal behaviour.
    """
    if isinstance(value, enum.Enum):
        cls = type(value)
        out.append(
            f"enum:{cls.__module__}.{cls.__qualname__}.{value.name};")
    elif value is None or isinstance(value, (bool, int, str, bytes)):
        out.append(f"{type(value).__name__}:{value!r};")
    elif isinstance(value, float):
        # hex() is exact: distinct floats never collide, equal floats
        # always encode identically (repr would do too, but hex is
        # explicit about it).
        out.append(f"float:{value.hex()};")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        out.append(f"dc:{cls.__module__}.{cls.__qualname__}(")
        for field in dataclasses.fields(value):
            out.append(f"{field.name}=")
            _encode(getattr(value, field.name), out)
        out.append(");")
    elif isinstance(value, (list, tuple)):
        out.append(f"{type(value).__name__}[")
        for item in value:
            _encode(item, out)
        out.append("];")
    elif isinstance(value, dict):
        out.append("dict{")
        for key in sorted(value, key=repr):
            _encode(key, out)
            out.append("->")
            _encode(value[key], out)
        out.append("};")
    else:
        raise Uncacheable(
            f"no canonical serialization for {type(value).__qualname__} "
            f"(value {value!r})")


def config_fingerprint(config: Any) -> str:
    """Canonical serialization of ``config`` (before hashing).

    Exposed for tests and debugging; raises :class:`Uncacheable` for
    configs embedding callables or unknown object types.
    """
    out: list = []
    _encode(config, out)
    return "".join(out)


def _compute_code_salt() -> str:
    """Hash the source of every simulation-relevant subpackage.

    Any change to the model (calibration tables, MAC logic, kernel,
    signal synthesis...) yields a different salt and therefore a cold
    cache — correctness over reuse.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256(f"schema={SCHEMA_VERSION};".encode())
    for package in SALTED_PACKAGES:
        for source in sorted((package_root / package).rglob("*.py")):
            digest.update(source.relative_to(package_root).as_posix()
                          .encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()[:16]


_code_salt: Optional[str] = None


def code_salt() -> str:
    """The process-wide code-version salt (computed once, then cached)."""
    global _code_salt
    if _code_salt is None:
        _code_salt = _compute_code_salt()
    return _code_salt


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one cache instance.

    Attributes:
        hits: results served from disk.
        misses: results computed and stored.
        uncacheable: configs that could not be hashed (run fresh,
            never stored).
    """

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses + uncacheable)."""
        return self.hits + self.misses + self.uncacheable

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return {"hits": self.hits, "misses": self.misses,
                "uncacheable": self.uncacheable}

    def __str__(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.uncacheable} uncacheable")


class ResultCache:
    """Content-addressed store of scenario results.

    Args:
        root: cache directory; created lazily on the first store.
            Defaults to ``.repro_cache`` under the current directory.
        salt: override the code-version salt (tests only).

    Entry files are named ``<salt>-<config hash>.pkl``; a cold salt
    simply means old entries are never looked up again (stale files are
    harmless and can be deleted by removing the directory).
    """

    def __init__(self, root: Optional[str] = None,
                 salt: Optional[str] = None) -> None:
        self.root = Path(root if root is not None else DEFAULT_CACHE_DIR)
        self._salt = salt if salt is not None else code_salt()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key_for(self, config: Any) -> str:
        """Cache key for ``config`` (raises :class:`Uncacheable`)."""
        fingerprint = config_fingerprint(config)
        digest = hashlib.sha256(fingerprint.encode()).hexdigest()[:32]
        return f"{self._salt}-{digest}"

    def _path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get(self, config: Any) -> Optional[Any]:
        """Cached result for ``config``, or None.

        Counts a hit or miss; uncacheable configs count separately and
        return None.  A corrupt entry is treated as a miss.
        """
        try:
            path = self._path_for(self.key_for(config))
        except Uncacheable:
            self.stats.uncacheable += 1
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: Any, result: Any) -> bool:
        """Store ``result`` under ``config``'s key.

        Returns False (and stores nothing) for uncacheable configs or
        unpicklable results.  Writes are atomic (temp file + rename) so
        a crashed run cannot leave a truncated entry, and each write
        goes through its own uniquely named temp file, so concurrent
        workers storing the same key never share one.
        """
        try:
            path = self._path_for(self.key_for(config))
        except Uncacheable:
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root,
                                        prefix=path.stem + ".",
                                        suffix=".tmp")
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            tmp.unlink(missing_ok=True)
            return False
        tmp.replace(path)
        return True

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Paths of every stored entry (any salt)."""
        if self.root.is_dir():
            yield from sorted(self.root.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every stored entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed


__all__ = ["CacheStats", "ResultCache", "Uncacheable", "SCHEMA_VERSION",
           "SALTED_PACKAGES", "DEFAULT_CACHE_DIR", "code_salt",
           "config_fingerprint"]
