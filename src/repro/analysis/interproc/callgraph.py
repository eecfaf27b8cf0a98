"""Project-wide call-graph extraction, the determinism sources, and the
cross-module index.

One :class:`ModuleSummary` per file: every function the module defines
(methods keyed ``Class.method``), every alias-resolved call it makes,
every determinism *source* it touches (inside functions and at module
level), every module-global write, and every ``Cell(...)``
construction.

Determinism sources come in three kinds, each with one classifier here
that SIM008 and SIM009 share: wall-clock reads (:data:`WALL_CLOCK_NAMES`),
global-state or entropy-seeded randomness (:func:`classify_rng_call`),
and host-environment / ordering reads (:data:`ORDERING_SOURCE_NAMES`).

Resolution strategy (documented precision envelope):

* bare-name calls resolve to same-module functions, then through the
  import map (``from x import f as g; g()`` → ``x.f``);
* attribute calls resolve through the import map when the chain roots
  at an imported name (``import repro.fleet.model as m; m.f()``);
* ``self.x()`` / ``cls.x()`` resolve to the enclosing class's method;
* ``Class(...)`` resolves to ``Class.__init__`` at lookup time;
* re-exports resolve by alias-hopping at lookup time
  (``repro.sim.Simulator`` → ``repro.sim.engine.Simulator``);
* calls on arbitrary objects (``runner.run()``) do **not** resolve —
  the analysis is deliberately call-graph-underapproximate rather than
  type-inferring, and the fixtures pin exactly what it sees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from repro.analysis.core import ModuleContext

#: Dotted names under which the sweep engine's cell type is imported.
CELL_CONSTRUCTOR_NAMES = frozenset({"repro.exec.Cell", "repro.exec.cells.Cell"})

#: Dotted names of the explicit cell-registration marker.
ENGINE_CELL_MARKER_NAMES = frozenset(
    {"repro.exec.engine_cell", "repro.exec.cells.engine_cell"}
)

#: Constructors whose instances must never be captured in a cell's
#: kwargs: live simulation state (a cell must *build* its machine from
#: specs, not close over one), OS handles, and thread primitives — all
#: either unpicklable or pickled-by-value into divergent copies.
BANNED_CAPTURE_NAMES = frozenset(
    {
        "repro.hypervisor.machine.Machine",
        "repro.hypervisor.Machine",
        "repro.sim.engine.Simulator",
        "repro.sim.Simulator",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "open",
    }
)

#: Canonical dotted names of wall-clock reads (import aliases are
#: resolved before matching, so ``from time import time; time()`` and
#: ``as`` renames are all caught).
WALL_CLOCK_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "os.times",
        "resource.getrusage",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that *construct* seeded generators —
#: the modern, reproducible API — rather than draw from global state.
SEEDED_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Host-environment / ordering sources.
ORDERING_SOURCE_NAMES = frozenset(
    {
        "os.getenv",
        "os.getpid",
        "os.getppid",
        "os.urandom",
        "os.listdir",
        "os.scandir",
        "os.walk",
        "os.cpu_count",
        "glob.glob",
        "glob.iglob",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: Prefix-matched ordering sources (``os.environ.get`` and friends).
ORDERING_SOURCE_PREFIXES = ("os.environ",)

#: How findings name a read of each source kind (``.format(call)``).
SOURCE_LABELS = {
    "wall-clock": "wall-clock read {}()",
    "rng": "nondeterministic randomness {}()",
    "ordering": "{}() depends on the host environment / iteration order",
}


def _entropy_seeded(node: ast.Call) -> bool:
    """True when a generator constructor gets no seed or a literal None."""
    seeds = [*node.args, *(kw.value for kw in node.keywords)]
    if not seeds:
        return True
    return (
        len(seeds) == 1
        and isinstance(seeds[0], ast.Constant)
        and seeds[0].value is None
    )


def classify_rng_call(resolved: str, node: ast.Call) -> Optional[str]:
    """Reason string when the call is nondeterministic randomness, else None.

    ``resolved`` is the alias-resolved dotted name of ``node.func``.
    The stdlib ``random`` module's free functions and the legacy
    ``numpy.random.*`` functions share hidden global state, so two
    components drawing from them entangle their streams.  Constructors
    are judged by their seed: ``random.Random(seed)`` and
    ``default_rng(seed)`` pass, while the forms with no seed or a
    literal ``None`` one are entropy-seeded (``random.SystemRandom`` is
    OS entropy by construction and always flagged).
    """
    if resolved == "random.SystemRandom":
        return (
            "random.SystemRandom() draws OS entropy and can never be "
            "seeded; derive a stream from RngFactory (repro.sim.rng)"
        )
    if resolved == "random.Random":
        if _entropy_seeded(node):
            return (
                "random.Random() without a seed (or with None) is "
                "entropy-seeded and unreproducible; pass a derived seed"
            )
        return None  # random.Random(seed) is an explicitly seeded instance
    if resolved == "random" or resolved.startswith("random."):
        return (
            f"{resolved}() draws from the stdlib's hidden global RNG; "
            "derive a stream from RngFactory (repro.sim.rng) instead"
        )
    if resolved.startswith("numpy.random."):
        tail = resolved.rsplit(".", 1)[-1]
        if tail not in SEEDED_CONSTRUCTORS:
            return (
                f"{resolved}() uses numpy's legacy global RNG; construct "
                "a seeded Generator (RngFactory.stream / default_rng(seed))"
            )
        if tail == "default_rng" and _entropy_seeded(node):
            return (
                "default_rng() without a seed (or with None) is "
                "entropy-seeded and unreproducible; pass the experiment seed"
            )
    return None


def classify_source(resolved: str, node: ast.Call) -> Optional[tuple[str, str]]:
    """``(kind, reason)`` when the call is a determinism source, else None."""
    if resolved in WALL_CLOCK_NAMES:
        return "wall-clock", (
            SOURCE_LABELS["wall-clock"].format(resolved)
            + " makes the run depend on host load, not the seed; read the "
            "simulator clock instead"
        )
    rng_reason = classify_rng_call(resolved, node)
    if rng_reason is not None:
        return "rng", rng_reason
    if resolved in ORDERING_SOURCE_NAMES or resolved.startswith(
        ORDERING_SOURCE_PREFIXES
    ):
        return "ordering", (
            SOURCE_LABELS["ordering"].format(resolved)
            + "; sim-domain code must be a pure function of the seed"
        )
    return None


# ----------------------------------------------------------------------
# summary data model
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CallSite:
    """One resolved outgoing call from a function."""

    target: str
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class TaintSource:
    """One determinism source occurrence."""

    call: str
    kind: str  # "wall-clock" | "rng" | "ordering"
    #: The message of the zero-hop SIM008 finding at this read.
    reason: str
    line: int
    col: int
    #: True when the source line carries ``# simlint: disable=SIM008``
    #: (or ``all``) — a suppressed source never contributes taint.
    suppressed: bool

    @property
    def label(self) -> str:
        return SOURCE_LABELS[self.kind].format(self.call)


@dataclass(frozen=True, slots=True)
class GlobalWrite:
    """An assignment to a ``global``-declared name inside a function."""

    name: str
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class CellCapture:
    """One suspicious binding at a ``Cell(...)`` construction site."""

    kind: str  # "lambda-fn" | "nested-fn" | "capture"
    detail: str
    keyword: str
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class CellSite:
    """One ``Cell(fn, kwargs)`` literal discovered in a module."""

    line: int
    col: int
    #: Resolved dotted name of the submitted function (None when the
    #: expression is not statically resolvable, e.g. a parameter).
    target: Optional[str]
    captures: tuple[CellCapture, ...]


@dataclass(frozen=True, slots=True)
class FunctionInfo:
    """Everything the whole-program passes need about one function."""

    qualname: str
    line: int
    col: int
    is_engine_cell: bool
    calls: tuple[CallSite, ...]
    sources: tuple[TaintSource, ...]
    global_writes: tuple[GlobalWrite, ...]


@dataclass(frozen=True, slots=True)
class ModuleSummary:
    """The per-file slice of the project index."""

    module: str
    path: str
    imports: Mapping[str, str]
    functions: tuple[FunctionInfo, ...]
    cell_sites: tuple[CellSite, ...]
    #: Sources outside every function body: module-level statements and
    #: class bodies.  They get zero-hop findings but seed no taint, as no
    #: call can reach them.
    module_sources: tuple[TaintSource, ...]
    suppressions: Mapping[int, frozenset[str]]

    def suppressed_at(self, line: int, rule_id: str) -> bool:
        active = self.suppressions.get(line)
        return bool(active) and ("all" in active or rule_id in active)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested defs.

    Class bodies and lambda bodies *are* descended into: a class body
    runs when its enclosing scope does, and a lambda executes in the
    enclosing function's dynamic extent often enough (sort keys,
    callbacks) that attributing its sources there is the conservative
    choice.  Every node of a module is therefore walked exactly once,
    by its innermost enclosing def or by the module-level walk.
    """
    for child in ast.iter_child_nodes(node):
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from _shallow_walk(child)


def _source_at(
    ctx: ModuleContext, node: ast.Call, resolved: str
) -> Optional[TaintSource]:
    """The determinism source ``node`` reads, if it is one."""
    source = classify_source(resolved, node)
    if source is None:
        return None
    kind, reason = source
    active = ctx.suppressions.get(node.lineno)
    return TaintSource(
        call=resolved,
        kind=kind,
        reason=reason,
        line=node.lineno,
        col=node.col_offset,
        suppressed=bool(active) and ("all" in active or "SIM008" in active),
    )


def _collect_defs(
    tree: ast.Module,
) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every function in the module with its dotted qualname."""
    out: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []

    def descend(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child))
                descend(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                descend(child, f"{prefix}{child.name}.")
            else:
                descend(child, prefix)

    descend(tree, "")
    return out


def _enclosing_class(qualname: str) -> Optional[str]:
    """``A.B.method`` → ``A.B`` when the qualname has a parent path."""
    if "." not in qualname:
        return None
    return qualname.rsplit(".", 1)[0]


class _FunctionExtractor:
    """Extracts one FunctionInfo from a function's shallow body."""

    def __init__(
        self,
        ctx: ModuleContext,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        module_defs: Mapping[str, list[str]],
        class_methods: Mapping[str, set[str]],
    ) -> None:
        self.ctx = ctx
        self.qualname = qualname
        self.node = node
        self.module_defs = module_defs  # bare name → qualnames in module
        self.class_methods = class_methods  # class path → method names

    # -- resolution ----------------------------------------------------
    def resolve_call_target(self, func: ast.expr) -> Optional[str]:
        module = self.ctx.module
        if isinstance(func, ast.Name):
            name = func.id
            quals = self.module_defs.get(name, [])
            if quals:
                # prefer a module-level def, else the unique candidate
                if name in quals:
                    return f"{module}.{name}"
                if len(quals) == 1:
                    return f"{module}.{quals[0]}"
            if name in self.ctx.imports:
                return self.ctx.imports[name]
            return None
        if isinstance(func, ast.Attribute):
            # self.x() / cls.x() → method on the enclosing class
            root = func.value
            if isinstance(root, ast.Name) and root.id in ("self", "cls"):
                cls_path = _enclosing_class(self.qualname)
                if cls_path is not None and func.attr in self.class_methods.get(
                    cls_path, set()
                ):
                    return f"{module}.{cls_path}.{func.attr}"
                return None
            return self.ctx.resolve(func)
        return None

    # -- extraction ----------------------------------------------------
    def extract(self) -> tuple[FunctionInfo, list[CellSite]]:
        calls: list[CallSite] = []
        sources: list[TaintSource] = []
        writes: list[GlobalWrite] = []
        cells: list[CellSite] = []
        global_names: set[str] = set()
        local_ctors: dict[str, str] = {}  # local var → resolved ctor name

        body_nodes = list(_shallow_walk(self.node))
        for sub in body_nodes:
            if isinstance(sub, ast.Global):
                global_names.update(sub.names)

        for sub in body_nodes:
            if isinstance(sub, ast.Assign):
                if (
                    len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and isinstance(sub.value, ast.Call)
                ):
                    ctor = self.ctx.resolve(sub.value.func)
                    if ctor is not None:
                        local_ctors[sub.targets[0].id] = ctor
                for target in sub.targets:
                    if isinstance(target, ast.Name) and target.id in global_names:
                        writes.append(
                            GlobalWrite(target.id, sub.lineno, sub.col_offset)
                        )
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(sub, ast.AnnAssign) and sub.value is None:
                    continue
                target = sub.target
                if isinstance(target, ast.Name) and target.id in global_names:
                    writes.append(
                        GlobalWrite(target.id, sub.lineno, sub.col_offset)
                    )
            elif isinstance(sub, ast.Call):
                resolved = self.ctx.resolve(sub.func)
                if resolved is not None and resolved in CELL_CONSTRUCTOR_NAMES:
                    cells.append(self._cell_site(sub, local_ctors))
                    continue
                if resolved is not None:
                    source = _source_at(self.ctx, sub, resolved)
                    if source is not None:
                        sources.append(source)
                        continue
                target_name = self.resolve_call_target(sub.func)
                if target_name is not None:
                    calls.append(
                        CallSite(target_name, sub.lineno, sub.col_offset)
                    )

        info = FunctionInfo(
            qualname=self.qualname,
            line=self.node.lineno,
            col=self.node.col_offset,
            is_engine_cell=self._is_engine_cell(),
            calls=tuple(calls),
            sources=tuple(sources),
            global_writes=tuple(writes),
        )
        return info, cells

    def _is_engine_cell(self) -> bool:
        for decorator in self.node.decorator_list:
            expr = decorator.func if isinstance(decorator, ast.Call) else decorator
            resolved = self.ctx.resolve(expr)
            if resolved in ENGINE_CELL_MARKER_NAMES:
                return True
        return False

    # -- Cell(...) sites -----------------------------------------------
    def _cell_site(
        self, node: ast.Call, local_ctors: Mapping[str, str]
    ) -> CellSite:
        captures: list[CellCapture] = []
        fn_expr: Optional[ast.expr] = node.args[0] if node.args else None
        kwargs_expr: Optional[ast.expr] = node.args[1] if len(node.args) > 1 else None
        for kw in node.keywords:
            if kw.arg == "fn":
                fn_expr = kw.value
            elif kw.arg == "kwargs":
                kwargs_expr = kw.value

        target: Optional[str] = None
        if isinstance(fn_expr, ast.Lambda):
            captures.append(
                CellCapture(
                    "lambda-fn", "lambda", "fn",
                    fn_expr.lineno, fn_expr.col_offset,
                )
            )
        elif isinstance(fn_expr, ast.Name):
            quals = self.module_defs.get(fn_expr.id, [])
            nested = f"{self.qualname}.{fn_expr.id}"
            if nested in quals:
                captures.append(
                    CellCapture(
                        "nested-fn", fn_expr.id, "fn",
                        fn_expr.lineno, fn_expr.col_offset,
                    )
                )
            else:
                target = self.resolve_call_target(fn_expr)
        elif isinstance(fn_expr, ast.Attribute):
            target = self.ctx.resolve(fn_expr)

        for keyword, value in self._cell_kwargs(kwargs_expr):
            if isinstance(value, ast.Lambda):
                captures.append(
                    CellCapture(
                        "capture", "lambda", keyword,
                        value.lineno, value.col_offset,
                    )
                )
            elif isinstance(value, ast.Call):
                ctor = self.ctx.resolve(value.func)
                if ctor in BANNED_CAPTURE_NAMES:
                    captures.append(
                        CellCapture(
                            "capture", ctor, keyword,
                            value.lineno, value.col_offset,
                        )
                    )
            elif isinstance(value, ast.Name):
                ctor_name = local_ctors.get(value.id)
                if ctor_name in BANNED_CAPTURE_NAMES:
                    assert ctor_name is not None
                    captures.append(
                        CellCapture(
                            "capture", ctor_name, keyword,
                            value.lineno, value.col_offset,
                        )
                    )

        return CellSite(
            line=node.lineno,
            col=node.col_offset,
            target=target,
            captures=tuple(captures),
        )

    @staticmethod
    def _cell_kwargs(
        kwargs_expr: Optional[ast.expr],
    ) -> list[tuple[str, ast.expr]]:
        pairs: list[tuple[str, ast.expr]] = []
        if isinstance(kwargs_expr, ast.Call):
            func = kwargs_expr.func
            if isinstance(func, ast.Name) and func.id == "dict":
                pairs.extend(
                    (kw.arg, kw.value)
                    for kw in kwargs_expr.keywords
                    if kw.arg is not None
                )
        elif isinstance(kwargs_expr, ast.Dict):
            for key, value in zip(kwargs_expr.keys, kwargs_expr.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    pairs.append((key.value, value))
        return pairs


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Build the whole-program summary for one parsed module."""
    defs = _collect_defs(ctx.tree)
    module_defs: dict[str, list[str]] = {}
    class_methods: dict[str, set[str]] = {}
    for qualname, _node in defs:
        bare = qualname.rsplit(".", 1)[-1]
        module_defs.setdefault(bare, []).append(qualname)
        parent = _enclosing_class(qualname)
        if parent is not None:
            class_methods.setdefault(parent, set()).add(bare)

    functions: list[FunctionInfo] = []
    cell_sites: list[CellSite] = []
    for qualname, node in defs:
        extractor = _FunctionExtractor(
            ctx, qualname, node, module_defs, class_methods
        )
        info, cells = extractor.extract()
        functions.append(info)
        cell_sites.extend(cells)

    module_sources: list[TaintSource] = []
    for node in _shallow_walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is not None:
            source = _source_at(ctx, node, resolved)
            if source is not None:
                module_sources.append(source)

    return ModuleSummary(
        module=ctx.module,
        path=str(ctx.path),
        imports=dict(ctx.imports),
        functions=tuple(functions),
        cell_sites=tuple(cell_sites),
        module_sources=tuple(module_sources),
        suppressions=dict(ctx.suppressions),
    )


# ----------------------------------------------------------------------
# the cross-module index
# ----------------------------------------------------------------------
#: (owning summary, function) pair — the unit the passes traverse.
FunctionEntry = tuple[ModuleSummary, FunctionInfo]

#: Alias-hop budget when resolving re-export chains.
_MAX_ALIAS_HOPS = 8


class ProjectIndex:
    """Module summaries stitched into a resolvable whole-program view."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: tuple[ModuleSummary, ...] = tuple(summaries)
        #: module name → summaries (fixtures may impersonate the same
        #: module from several files; all candidates are kept).
        self.modules: dict[str, list[ModuleSummary]] = {}
        #: fully-qualified function ref → entries.
        self.functions: dict[str, list[FunctionEntry]] = {}
        for summary in self.summaries:
            self.modules.setdefault(summary.module, []).append(summary)
            for fn in summary.functions:
                ref = f"{summary.module}.{fn.qualname}"
                self.functions.setdefault(ref, []).append((summary, fn))

    # ------------------------------------------------------------------
    def iter_functions(self) -> Iterator[tuple[str, FunctionEntry]]:
        for ref in sorted(self.functions):
            for entry in self.functions[ref]:
                yield ref, entry

    # ------------------------------------------------------------------
    def resolve_callable(self, target: str) -> tuple[str, list[FunctionEntry]]:
        """Resolve a dotted call target to known functions.

        Returns ``(canonical_ref, entries)``; entries is empty when the
        target leaves the analyzed program.  Handles class instantiation
        (``X`` → ``X.__init__``) and re-export alias hops.
        """
        seen: set[str] = set()
        current = target
        for _hop in range(_MAX_ALIAS_HOPS):
            if current in self.functions:
                return current, self.functions[current]
            init_ref = f"{current}.__init__"
            if init_ref in self.functions:
                return init_ref, self.functions[init_ref]
            hopped = self._alias_hop(current)
            if hopped is None or hopped in seen:
                return current, []
            seen.add(hopped)
            current = hopped
        return current, []

    def _alias_hop(self, target: str) -> Optional[str]:
        """Rewrite ``module.name.rest`` through ``module``'s import map."""
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            candidates = self.modules.get(module)
            if not candidates:
                continue
            head = parts[cut]
            rest = parts[cut + 1:]
            for summary in candidates:
                alias = summary.imports.get(head)
                if alias is not None and alias != target:
                    return ".".join([alias, *rest]) if rest else alias
            return None
        return None


__all__ = [
    "BANNED_CAPTURE_NAMES",
    "CELL_CONSTRUCTOR_NAMES",
    "CallSite",
    "CellCapture",
    "CellSite",
    "ENGINE_CELL_MARKER_NAMES",
    "FunctionEntry",
    "FunctionInfo",
    "GlobalWrite",
    "ModuleSummary",
    "ORDERING_SOURCE_NAMES",
    "ORDERING_SOURCE_PREFIXES",
    "ProjectIndex",
    "SEEDED_CONSTRUCTORS",
    "SOURCE_LABELS",
    "TaintSource",
    "WALL_CLOCK_NAMES",
    "classify_rng_call",
    "classify_source",
    "summarize_module",
]
