"""The RPL rule set: one visitor per repo invariant.

Every rule targets a *load-bearing* guarantee from
``docs/architecture.md`` — these are not style checks.  A rule is a
small class registered in :data:`RULES` under its ``RPLxxx`` code with
a path scope (:meth:`LintRule.applies_to`) and a ``check`` that walks
one parsed module and yields raw findings.  The runner layers inline
suppressions and the scoped allowlist on top
(:mod:`repro.lint.runner`), so rules themselves stay absolute.

Rules reason about source *syntax*, not runtime values, so each states
its heuristic precisely; ``docs/linting.md`` is the user-facing
catalog.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Set

__all__ = ["RawFinding", "LintRule", "RULES", "register"]


@dataclass(frozen=True)
class RawFinding:
    """A violation before path/suppression/allowlist handling."""

    line: int
    col: int
    message: str


class LintRule:
    """Base class: code, human name, one-line summary, scope, check."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def applies_to(self, relpath: str) -> bool:  # pragma: no cover - trivial
        return True

    def check(
        self, tree: ast.Module, source: str, relpath: str
    ) -> List[RawFinding]:
        raise NotImplementedError


RULES: Dict[str, LintRule] = {}


def register(cls):
    """Class decorator adding one rule instance to the registry."""
    instance = cls()
    if not instance.code or instance.code in RULES:
        raise ValueError(f"rule code {instance.code!r} missing or duplicated")
    RULES[instance.code] = instance
    return cls


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted path, from the module's imports.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy import
    random as npr`` binds ``npr -> numpy.random``; ``from time import
    time`` binds ``time -> time.time``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[bound] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def _canonical_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The canonical dotted path of a Name/Attribute chain, resolving
    the root through the module's import aliases."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    canonical_root = aliases.get(root)
    if canonical_root is None:
        return dotted
    return f"{canonical_root}.{rest}" if rest else canonical_root


def _path_has_dir(relpath: str, directory: str) -> bool:
    return directory in PurePosixPath(relpath).parts[:-1]


# ---------------------------------------------------------------------------
# RPL001 — no global-RNG APIs
# ---------------------------------------------------------------------------

#: The seedable/threadable surface of ``numpy.random`` that determinism
#: guarantee #1 is built on; everything else on the module (legacy
#: module-level draw functions, ``seed``, ``RandomState``) is hidden
#: process-global state.
_NP_RANDOM_ALLOWED = {
    "Generator",
    "SeedSequence",
    "default_rng",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


@register
class GlobalRNGRule(LintRule):
    """Guarantee #1: a trial's randomness comes only from its threaded
    per-trial generator.  Any ``numpy.random`` module-level function
    (``np.random.seed``, ``np.random.normal``, ...) or use of the
    stdlib ``random`` module draws from process-global state that no
    seed thread controls."""

    code = "RPL001"
    name = "no-global-rng"
    summary = (
        "no np.random module functions / stdlib random — thread a "
        "seeded Generator/SeedSequence instead"
    )

    def check(self, tree, source, relpath):
        aliases = _import_aliases(tree)
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            RawFinding(
                                node.lineno,
                                node.col_offset,
                                "stdlib `random` is process-global state; use the "
                                "trial's numpy Generator",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            "stdlib `random` is process-global state; use the "
                            "trial's numpy Generator",
                        )
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_ALLOWED:
                            findings.append(
                                RawFinding(
                                    node.lineno,
                                    node.col_offset,
                                    f"numpy.random.{alias.name} is a global-RNG "
                                    "API; thread a Generator/SeedSequence",
                                )
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _canonical_dotted(node, aliases)
                if (
                    dotted
                    and dotted.startswith("numpy.random.")
                    and dotted.count(".") == 2
                ):
                    attr = dotted.rsplit(".", 1)[1]
                    if attr not in _NP_RANDOM_ALLOWED:
                        findings.append(
                            RawFinding(
                                node.lineno,
                                node.col_offset,
                                f"np.random.{attr} draws from the hidden global "
                                "RNG; thread a Generator/SeedSequence",
                            )
                        )
        return findings


# ---------------------------------------------------------------------------
# RPL003 — no wall-clock / host-entropy calls
# ---------------------------------------------------------------------------

_ENTROPY_CALLS = {
    "time.time": "wall-clock stamp",
    "time.time_ns": "wall-clock stamp",
    "datetime.datetime.now": "wall-clock stamp",
    "datetime.datetime.utcnow": "wall-clock stamp",
    "datetime.datetime.today": "wall-clock stamp",
    "datetime.date.today": "wall-clock stamp",
    "uuid.uuid1": "host entropy",
    "uuid.uuid3": "host entropy",
    "uuid.uuid4": "host entropy",
    "uuid.uuid5": "host entropy",
    "os.urandom": "host entropy",
    "secrets.token_bytes": "host entropy",
    "secrets.token_hex": "host entropy",
    "secrets.token_urlsafe": "host entropy",
    "secrets.randbits": "host entropy",
    "secrets.choice": "host entropy",
}


@register
class WallClockEntropyRule(LintRule):
    """Guarantees #1/#3: results are pure functions of (spec, seed), so
    nothing that feeds them may read the wall clock or host entropy.
    ``time.perf_counter``/``process_time`` stay legal — durations
    measure, they never address.  The declared exceptions (store access
    stamps, staging-file names, the trace manifest timestamp) live in
    the allowlist with their justifications."""

    code = "RPL003"
    name = "no-wall-clock-entropy"
    summary = (
        "no time.time / datetime.now / uuid / os.urandom outside "
        "allowlisted store/telemetry scopes"
    )

    def check(self, tree, source, relpath):
        aliases = _import_aliases(tree)
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _canonical_dotted(node.func, aliases)
            if dotted in _ENTROPY_CALLS:
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"{dotted}() is a {_ENTROPY_CALLS[dotted]}: results "
                        "must be pure functions of (spec, seed)",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPL004 — filesystem iteration must be sorted in store/
# ---------------------------------------------------------------------------

_FS_ITER_ATTRS = {"iterdir", "glob", "rglob"}
_FS_ITER_CALLS = {"os.listdir", "os.scandir"}


@register
class UnsortedFsIterationRule(LintRule):
    """Guarantees #6/#7: everything the store derives from directory
    listings (entry enumeration for sync/GC/merge probes, key
    iteration) must be order-deterministic, and directory iteration
    order is filesystem-dependent.  Every ``iterdir``/``glob``/
    ``listdir`` result in ``store/`` must pass through ``sorted(...)``
    at the call site."""

    code = "RPL004"
    name = "sorted-fs-iteration"
    summary = "store/: iterdir/glob/listdir results must be wrapped in sorted(...)"

    def applies_to(self, relpath: str) -> bool:
        return _path_has_dir(relpath, "store")

    def check(self, tree, source, relpath):
        sorted_wrapped: Set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                sorted_wrapped.add(id(node.args[0]))
        aliases = _import_aliases(tree)
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in sorted_wrapped:
                continue
            name = None
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_ITER_ATTRS
            ):
                name = node.func.attr
            else:
                dotted = _canonical_dotted(node.func, aliases)
                if dotted in _FS_ITER_CALLS:
                    name = dotted
            if name is not None:
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"{name}() iteration order is filesystem-dependent; "
                        "wrap the call in sorted(...)",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPL005 — pool-dispatched callables must be module-level
# ---------------------------------------------------------------------------

_POOL_METHODS = {"map", "imap", "imap_unordered", "starmap", "apply_async", "submit"}
_DISPATCH_FUNCTIONS = {"run_monte_carlo", "run_adaptive"}


@register
class PicklablePoolCallableRule(LintRule):
    """Guarantee #2 rests on trials fanning out over multiprocessing
    workers, and ``spawn``-method pools pickle the dispatched callable:
    a lambda or nested closure works under ``fork`` on the developer's
    Linux box and then dies on any ``spawn`` platform.  Callables
    handed to pool dispatch must be module-level functions."""

    code = "RPL005"
    name = "picklable-pool-callables"
    summary = (
        "callables handed to pool.map/run_monte_carlo must be "
        "module-level, not lambdas/closures"
    )

    @staticmethod
    def _collect_bindings(tree: ast.Module):
        module_level: Set[str] = set()
        nested: Set[str] = set()
        lambda_bound: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_level.add(stmt.name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if (
                        isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and child is not node
                    ):
                        nested.add(child.name)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lambda_bound.add(target.id)
        return module_level, nested, lambda_bound

    def check(self, tree, source, relpath):
        module_level, nested, lambda_bound = self._collect_bindings(tree)
        findings: List[RawFinding] = []

        def judge(callable_node: ast.AST, site: str) -> None:
            if isinstance(callable_node, ast.Lambda):
                findings.append(
                    RawFinding(
                        callable_node.lineno,
                        callable_node.col_offset,
                        f"lambda handed to {site} cannot pickle under the "
                        "spawn start method; use a module-level function",
                    )
                )
            elif isinstance(callable_node, ast.Name):
                name = callable_node.id
                if name in lambda_bound or (
                    name in nested and name not in module_level
                ):
                    findings.append(
                        RawFinding(
                            callable_node.lineno,
                            callable_node.col_offset,
                            f"{name!r} handed to {site} is a nested/lambda "
                            "binding; pool callables must be module-level",
                        )
                    )

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_METHODS
                and isinstance(node.func.value, ast.Name)
                and "pool" in node.func.value.id.lower()
            ):
                if node.args:
                    judge(node.args[0], f"pool.{node.func.attr}")
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in _DISPATCH_FUNCTIONS
            ):
                target = node.args[0] if node.args else None
                for keyword in node.keywords:
                    if keyword.arg == "trial_fn":
                        target = keyword.value
                if target is not None:
                    judge(target, node.func.id)
        return findings


# ---------------------------------------------------------------------------
# RPL006 — canonical() pops must match the declared exclusion registry
# ---------------------------------------------------------------------------


@register
class HashExclusionRegistryRule(LintRule):
    """Spec hashes are content addresses shared by the store, sharding,
    and every golden pin; which fields ``ScenarioSpec.canonical()``
    strips is therefore a cross-module contract.  The pops must match
    the module's declared ``HASH_EXCLUDED_FIELDS`` registry exactly —
    a popped-but-undeclared field moves every content address silently,
    a declared-but-unpopped field means the registry (and whatever
    reads it) lies."""

    code = "RPL006"
    name = "hash-exclusion-registry"
    summary = (
        "ScenarioSpec.canonical() pops must match the declared "
        "HASH_EXCLUDED_FIELDS registry"
    )

    _REGISTRY_NAME = "HASH_EXCLUDED_FIELDS"

    @staticmethod
    def _subscript_key_path(node: ast.AST) -> Optional[str]:
        """``payload["solver"]["a"]`` -> ``solver.a`` (None if any key
        is non-literal)."""
        keys: List[str] = []
        while isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
                node = node.value
            else:
                return None
        if not isinstance(node, ast.Name):
            return None
        return ".".join(reversed(keys))

    def _declared(self, tree: ast.Module) -> Optional[Dict[str, int]]:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == self._REGISTRY_NAME
                        and isinstance(stmt.value, (ast.Tuple, ast.List))
                    ):
                        fields: Dict[str, int] = {}
                        for element in stmt.value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                fields[element.value] = element.lineno
                        return fields
        return None

    def check(self, tree, source, relpath):
        spec_class = next(
            (
                node
                for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "ScenarioSpec"
            ),
            None,
        )
        if spec_class is None:
            return []
        canonical = next(
            (
                node
                for node in spec_class.body
                if isinstance(node, ast.FunctionDef) and node.name == "canonical"
            ),
            None,
        )
        if canonical is None:
            return []
        findings: List[RawFinding] = []
        declared = self._declared(tree)
        if declared is None:
            return [
                RawFinding(
                    spec_class.lineno,
                    spec_class.col_offset,
                    f"ScenarioSpec.canonical() pops fields but the module "
                    f"declares no {self._REGISTRY_NAME} registry",
                )
            ]
        popped: Dict[str, int] = {}
        for node in ast.walk(canonical):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and node.args
            ):
                arg = node.args[0]
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            "canonical() pops a non-literal field name; "
                            "hash exclusions must be statically checkable",
                        )
                    )
                    continue
                prefix = self._subscript_key_path(node.func.value)
                field = f"{prefix}.{arg.value}" if prefix else arg.value
                popped[field] = node.lineno
        for field, lineno in popped.items():
            if field not in declared:
                findings.append(
                    RawFinding(
                        lineno,
                        0,
                        f"canonical() pops {field!r} but {self._REGISTRY_NAME} "
                        "does not declare it — spec hashes would move silently",
                    )
                )
        for field, lineno in declared.items():
            if field not in popped:
                findings.append(
                    RawFinding(
                        lineno,
                        0,
                        f"{self._REGISTRY_NAME} declares {field!r} but "
                        "canonical() never pops it — the registry lies",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPL007 — store writes must be atomic (tmp + rename)
# ---------------------------------------------------------------------------

_WRITE_MODES = {"w", "wb", "wt", "a", "ab", "at", "x", "xb", "xt", "w+", "wb+"}
_STAGING_MARKERS = ("tmp", "temp", "staging", "quarantine")


@register
class AtomicStoreWriteRule(LintRule):
    """The store's crash-safety story (guarantee #3's "bit-identical
    hits" assumes entries are never half-written) is atomic tmp-file +
    ``os.replace`` publication.  A direct write-mode ``open`` /
    ``write_bytes`` / ``write_text`` on a non-staging path in
    ``store/`` can expose a torn entry to concurrent readers."""

    code = "RPL007"
    name = "atomic-store-writes"
    summary = (
        "store/: no direct write-mode open()/write_bytes() on entry "
        "paths — stage to a tmp file and os.replace"
    )

    def applies_to(self, relpath: str) -> bool:
        return _path_has_dir(relpath, "store")

    @staticmethod
    def _mentions_staging(node: ast.AST) -> bool:
        for child in ast.walk(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value
            if name and any(marker in name.lower() for marker in _STAGING_MARKERS):
                return True
        return False

    @staticmethod
    def _is_backend_dispatch(node: ast.AST) -> bool:
        """``self.backend.write_bytes(...)`` is the StoreBackend seam —
        its implementations own the tmp+``os.replace`` publication, so
        calling it *is* the atomic path, not a bypass of it."""
        for child in ast.walk(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            if name and "backend" in name.lower():
                return True
        return False

    @classmethod
    def _write_mode(cls, node: ast.Call, mode_position: int) -> bool:
        mode = None
        if len(node.args) > mode_position:
            mode = node.args[mode_position]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False  # open() defaults to read
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and mode.value in _WRITE_MODES
        )

    def check(self, tree, source, relpath):
        aliases = _import_aliases(tree)
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            # open(path, "w") / gzip.open(path, "wt")
            dotted = _canonical_dotted(node.func, aliases)
            if dotted in ("open", "gzip.open", "io.open"):
                if (
                    node.args
                    and self._write_mode(node, 1)
                    and not self._mentions_staging(node.args[0])
                ):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"direct write-mode {dotted}() on a store path; "
                            "stage to a .tmp file and os.replace into place",
                        )
                    )
                continue
            # path.write_bytes(...) / path.write_text(...) / path.open("w")
            if isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if (
                    attr in ("write_bytes", "write_text")
                    and not self._mentions_staging(node.func.value)
                    and not self._is_backend_dispatch(node.func.value)
                ):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            f".{attr}() writes a store path directly; stage "
                            "to a .tmp file and os.replace into place",
                        )
                    )
                elif (
                    attr == "open"
                    and self._write_mode(node, 0)
                    and not self._mentions_staging(node.func.value)
                ):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            ".open() in write mode on a store path; stage to "
                            "a .tmp file and os.replace into place",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# RPL008 — telemetry names in engine hot loops must be precomputed
# ---------------------------------------------------------------------------

_TELEMETRY_METHODS = {"count", "observe", "gauge", "event", "span", "add_span"}


@register
class EagerTelemetryFormatRule(LintRule):
    """The null-recorder contract (guarantee #8's performance face,
    ``benchmarks/test_bench_telemetry.py``): disabled telemetry must
    cost a no-op call, but an f-string/``%``/``.format`` *argument* is
    rendered by the caller before the no-op ever runs — paying string
    formatting per kernel call forever.  Metric names in ``engine/``
    must be constants (or precomputed/cached outside the call)."""

    code = "RPL008"
    name = "no-eager-telemetry-format"
    summary = (
        "engine/: telemetry metric names must be constants, not "
        "f-strings formatted on every call"
    )

    def applies_to(self, relpath: str) -> bool:
        return _path_has_dir(relpath, "engine")

    @staticmethod
    def _eagerly_formatted(node: ast.AST) -> bool:
        if isinstance(node, ast.JoinedStr):
            return any(
                isinstance(part, ast.FormattedValue) for part in node.values
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.Add)):
            return any(
                isinstance(side, ast.JoinedStr)
                or (isinstance(side, ast.Constant) and isinstance(side.value, str))
                for side in (node.left, node.right)
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"
        ):
            return True
        return False

    def check(self, tree, source, relpath):
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TELEMETRY_METHODS
                and node.args
            ):
                continue
            name_arg = node.args[0]
            if self._eagerly_formatted(name_arg):
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"telemetry .{node.func.attr}() name is formatted on "
                        "every call; the disabled-recorder path pays it too — "
                        "precompute the name (e.g. an lru_cache'd table)",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPL009 — no unused module-level imports
# ---------------------------------------------------------------------------


def _module_level_imports(body: List[ast.stmt]):
    """The import statements a module runs at import time: its top-level
    statements and those inside top-level ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_level_imports(block)
            for handler in node.handlers:
                yield from _module_level_imports(handler.body)


def _string_names(node: ast.AST) -> Set[str]:
    """Names in the string constants under *node* that parse as Python
    expressions (quoted annotations such as ``"EdgeList"``)."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@register
class UnusedImportRule(LintRule):
    """An import nothing reads misstates what a module depends on, and
    an unused module import still runs on every ``import repro`` (the
    setup path every worker pays).  A module-level binding counts as
    used when any name expression reads it, when a quoted annotation
    names it, or when ``__all__`` lists it (a package re-export)."""

    code = "RPL009"
    name = "no-unused-imports"
    summary = (
        "every module-level import must be used, quoted in an "
        "annotation, or listed in __all__"
    )

    def check(self, tree, source, relpath):
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
                used |= _string_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                used |= _string_names(node.returns)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    used.update(
                        sub.value
                        for sub in ast.walk(node.value)
                        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                    )
        findings: List[RawFinding] = []
        for node in _module_level_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"`{bound}` is imported but never used; remove the "
                            "import (or list the name in __all__ if it is a "
                            "re-export)",
                        )
                    )
        return findings
