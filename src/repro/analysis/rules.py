"""reprolint rule catalogue: the engine's invariants as AST checks.

Three rule families guard the three contracts nine PRs of this engine
rest on (see ``ANALYSIS.md`` for the prose catalogue):

* **DET** — bit-for-bit replay: no process-global RNG, no fixed literal
  seeds outside the annotated allowlist, no wall-clock or stdlib
  ``random`` in protocol paths (``repro/distributed``, ``repro/core``),
  no iteration over hash-salted sets feeding message/ledger
  construction.
* **CONC** — thread/process parity: module-level mutables must be
  ``ContextVar``, a registered lock, ``Final``, or carry a ``guarded``
  suppression naming their lock; module-level ``threading.Lock()`` must
  go through :func:`repro.analysis.registry.register_lock` so fork
  re-init and lockwatch see it.
* **ALLOC** — the fused hot paths stay allocation-free: inside a
  function marked ``@hotpath`` (or named ``*fused*``) a bare
  binary-operator assignment is a per-step temporary.

Plus **EXC001**: ``except Exception`` hides protocol errors; narrow it
or annotate the boundary.  **DTYPE001**: in ``repro/nn`` an
``np.float64`` scalar multiplied into an array promotes a float32 engine
to float64.  And **DEAD001**, the one rule that needs the whole tree: a
``def``/``class`` under ``src/repro`` whose name no consumer uses is
surface nothing reaches.  **KNOB001**, its twin for settings: a field of
a ``*Config`` / ``*Spec`` / ``*Plan`` dataclass that nothing outside
``tests/`` sets is a constant wearing a knob's clothes.

Every rule carries its own ``must_flag``/``must_pass`` fixture snippet;
``lint --self-test`` and ``tests/analysis`` replay them, so a rule that
silently stops firing fails CI loudly.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from typing import Final, Iterator, List, Optional, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULES",
    "identifier_uses",
    "knob_settings",
    "rule_tokens",
]


@dataclass(frozen=True)
class Finding:
    """One lint finding: where, which rule, what, and how to fix it."""

    path: str
    line: int
    rule: str
    message: str
    fixit: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.fixit:
            text += f"\n    fix: {self.fixit}"
        return text


class FileContext:
    """One file under lint: source, AST, and its place in the tree."""

    def __init__(
        self,
        path: str,
        rel: str,
        source: str,
        tree: ast.Module,
        tree_uses: Optional[Counter] = None,
        tree_sets: Optional[Counter] = None,
    ) -> None:
        self.path = path
        #: Tree-relative posix path, e.g. ``repro/distributed/edge.py``.
        self.rel = rel
        self.source = source
        self.tree = tree
        #: :func:`identifier_uses` summed over every consumer of the
        #: linted tree, or ``None`` when one file is linted on its own
        #: (tree-level rules then have nothing to say).
        self.tree_uses = tree_uses
        #: :func:`knob_settings` summed over every consumer outside
        #: ``tests/`` (KNOB001), ``None`` alongside ``tree_uses``.
        self.tree_sets = tree_sets

    @property
    def protocol_path(self) -> bool:
        """Whether this file is on a replay-deterministic protocol path."""
        return self.rel.startswith(("repro/distributed/", "repro/core/"))


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _tail(dotted: Optional[str]) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _is_pure_literal(node: ast.AST) -> bool:
    """A constant expression: literal, or tuple/list of literals."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_pure_literal(node.operand)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_pure_literal(elt) for elt in node.elts)
    return False


class Rule:
    """Base rule: subclasses set the class attributes and ``check``."""

    id: str = ""
    token: str = ""
    summary: str = ""
    must_flag: str = ""
    must_pass: str = ""
    #: Virtual tree location the fixture snippets lint under (protocol
    #: path by default so path-scoped rules exercise).
    snippet_rel: str = "repro/distributed/_snippet.py"
    #: The whole-tree summary the rule reads (``"tree_uses"`` or
    #: ``"tree_sets"`` of :class:`FileContext`), if any; its fixtures
    #: are then linted as a one-file tree.
    needs_tree: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int, message: str, fixit: str = "") -> Finding:
        return Finding(path=ctx.path, line=line, rule=self.id, message=message, fixit=fixit)


# ---------------------------------------------------------------------------
# DET: determinism / replay rules
# ---------------------------------------------------------------------------
_NP_RANDOM_OK: Final = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


class GlobalRandomRule(Rule):
    id = "DET001"
    token = "global-rng"
    summary = (
        "no np.random module-level calls — the process-global RNG is invisible "
        "to seeded replay and shared across threads"
    )
    must_flag = (
        "import numpy as np\n"
        "\n"
        "def jitter(x):\n"
        "    np.random.seed(7)\n"
        "    return x + np.random.rand(3)\n"
    )
    must_pass = (
        "import numpy as np\n"
        "\n"
        "def jitter(x, seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return x + rng.random(3)\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted:
                continue
            if dotted.startswith(("np.random.", "numpy.random.")):
                tail = _tail(dotted)
                if tail not in _NP_RANDOM_OK:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"`{dotted}()` draws from the process-global numpy RNG: "
                        "invisible to seeded replay and racy across threads",
                        "draw from an explicit np.random.Generator threaded from "
                        "the caller (rng = np.random.default_rng(seed); rng."
                        f"{tail}(...))",
                    )


class FixedRngRule(Rule):
    id = "DET002"
    token = "fixed-rng"
    summary = (
        "no default_rng(<literal>) outside the annotated allowlist — a fixed "
        "seed silently pins a stream that campaigns cannot vary"
    )
    must_flag = (
        "import numpy as np\n"
        "\n"
        "def loader_rng():\n"
        "    return np.random.default_rng(0)\n"
    )
    must_pass = (
        "import numpy as np\n"
        "\n"
        "def loader_rng(config):\n"
        "    seeded = np.random.default_rng(config.seed)\n"
        "    # Deliberate fixed stream, machine-checked annotation:\n"
        "    pinned = np.random.default_rng(0)  # reprolint: fixed-rng -- eval order is part of the Table-I contract\n"
        "    return seeded, pinned\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if _tail(dotted) != "default_rng":
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            if not args:
                yield self.finding(
                    ctx,
                    node.lineno,
                    "`default_rng()` without a seed draws OS entropy — the run "
                    "cannot replay",
                    "thread a seed from config (default_rng(config.seed))",
                )
            elif all(_is_pure_literal(a) for a in args):
                yield self.finding(
                    ctx,
                    node.lineno,
                    "`default_rng(<literal>)` pins a fixed stream the campaign "
                    "seed cannot vary",
                    "thread the seed from config, or — if the fixed stream is "
                    "the contract — annotate the line with "
                    "`# reprolint: fixed-rng -- <why>`",
                )


_WALLCLOCK_CALLS: Final = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    id = "DET003"
    token = "wallclock"
    summary = (
        "no wall-clock reads or stdlib random in protocol paths "
        "(repro/distributed, repro/core) — replay must not see ambient state"
    )
    must_flag = (
        "import time\n"
        "\n"
        "def stamp(msg):\n"
        "    msg.sent_at = time.time()\n"
        "    return msg\n"
    )
    must_pass = (
        "import time\n"
        "\n"
        "def wait(deadline):\n"
        "    start = time.monotonic()\n"
        "    time.sleep(0.01)\n"
        "    return time.perf_counter() - start\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.protocol_path:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx,
                    node.lineno,
                    "stdlib `random` in a protocol path shares one unseeded "
                    "global stream",
                    "use an np.random.Generator threaded from config",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if not dotted:
                    continue
                if dotted in _WALLCLOCK_CALLS:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"`{dotted}()` reads the wall clock in a protocol path — "
                        "two replays of one seed will see different values",
                        "use time.monotonic()/perf_counter() for intervals; "
                        "protocol-visible values must derive from the seed",
                    )
                elif dotted.startswith("random."):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"`{dotted}()` uses the stdlib global RNG in a protocol "
                        "path",
                        "use an np.random.Generator threaded from config",
                    )


class SetOrderRule(Rule):
    id = "DET004"
    token = "set-order"
    summary = (
        "no iteration over sets in protocol paths — set order is hash-salted "
        "per process; messages/ledgers built from it cannot replay"
    )
    must_flag = (
        "def poll(devices, send):\n"
        "    for device in set(devices):\n"
        "        send(device)\n"
    )
    must_pass = (
        "def poll(devices, send):\n"
        "    for device in sorted(set(devices)):\n"
        "        send(device)\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.protocol_path:
            return
        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._unordered(it):
                    yield self.finding(
                        ctx,
                        it.lineno,
                        "iterating a set: order is hash-salted per process, so "
                        "anything sequenced from it (messages, ledger rows, "
                        "aggregation order) cannot replay bit-for-bit",
                        "wrap in sorted(...) with a total key before iterating",
                    )

    @staticmethod
    def _unordered(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted in {"set", "frozenset"}:
                return True
            if (
                dotted in {"list", "tuple", "enumerate", "iter", "reversed"}
                and expr.args
                and SetOrderRule._unordered(expr.args[0])
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# CONC: concurrency / fork-safety rules
# ---------------------------------------------------------------------------
_MUTABLE_CTORS: Final = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "OrderedDict",
        "defaultdict",
        "deque",
        "Counter",
        "ChainMap",
        "WeakSet",
        "WeakKeyDictionary",
        "WeakValueDictionary",
        "count",
        "cycle",
        "Queue",
        "LifoQueue",
        "PriorityQueue",
        "SimpleQueue",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
    }
)
_EXEMPT_CTORS: Final = frozenset({"ContextVar", "local", "register_lock"})
_LOCK_CTORS: Final = frozenset({"Lock", "RLock"})


def _is_final_annotation(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return _tail(_dotted(annotation)) == "Final"


def _module_assignments(tree: ast.Module) -> Iterator[Tuple[str, ast.AST, Optional[ast.AST], int]]:
    """(name, value, annotation, line) for module-scope assignments."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.value, None, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                yield stmt.target.id, stmt.value, stmt.annotation, stmt.lineno


class ModuleMutableRule(Rule):
    id = "CONC001"
    token = "guarded"
    summary = (
        "module-level mutables must be ContextVar, a registered lock, Final, "
        "or carry a `guarded` suppression naming the lock that protects them"
    )
    must_flag = "_CACHE = {}\n\n\ndef lookup(key):\n    return _CACHE.get(key)\n"
    must_pass = (
        "import threading\n"
        "from contextvars import ContextVar\n"
        "from typing import Dict, Final\n"
        "\n"
        "_FROZEN: Final[Dict[str, int]] = {}\n"
        "_AMBIENT: ContextVar = ContextVar('ambient', default=None)\n"
        "_PER_THREAD = threading.local()\n"
        "# reprolint: guarded -- insertions serialized by the registry lock\n"
        "_TRACKED = {}\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for name, value, annotation, line in _module_assignments(ctx.tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if _is_final_annotation(annotation):
                continue
            tail = ""
            if isinstance(value, ast.Call):
                tail = _tail(_dotted(value.func))
                if tail in _EXEMPT_CTORS or tail in _LOCK_CTORS:
                    continue
            mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            ) or (isinstance(value, ast.Call) and tail in _MUTABLE_CTORS)
            if mutable:
                yield self.finding(
                    ctx,
                    line,
                    f"module-level mutable `{name}` is shared across every "
                    "thread and inherited by forked workers with no declared "
                    "protection",
                    "make it a ContextVar, create locks via register_lock, "
                    "annotate Final (never rebound, guarded elsewhere), or "
                    "suppress with `# reprolint: guarded -- <which lock "
                    "serializes access>`",
                )


class UnregisteredLockRule(Rule):
    id = "CONC002"
    token = "unregistered-lock"
    summary = (
        "module-level threading.Lock/RLock must be created via "
        "repro.analysis.registry.register_lock so fork re-init and lockwatch "
        "cover it"
    )
    must_flag = (
        "import threading\n"
        "\n"
        "_CACHE_LOCK = threading.Lock()\n"
    )
    must_pass = (
        "from repro.analysis.registry import register_lock\n"
        "\n"
        "_CACHE_LOCK = register_lock('snippet.cache', module=__name__, attr='_CACHE_LOCK')\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for name, value, _annotation, line in _module_assignments(ctx.tree):
            if not isinstance(value, ast.Call):
                continue
            dotted = _dotted(value.func)
            if _tail(dotted) in _LOCK_CTORS and (
                dotted in _LOCK_CTORS or dotted.startswith("threading.")
            ):
                yield self.finding(
                    ctx,
                    line,
                    f"module-level lock `{name}` bypasses the lock registry: "
                    "a thread holding it at fork time deadlocks every pool "
                    "worker, and lockwatch cannot see it",
                    f'create it via `{name} = register_lock("<name>", '
                    f'module=__name__, attr="{name}")` '
                    "(from repro.analysis.registry)",
                )


# ---------------------------------------------------------------------------
# ALLOC: fused hot paths stay allocation-free
# ---------------------------------------------------------------------------
_FUSED_NAME: Final = re.compile(r"(^|_)fused(_|$)")


class HotPathAllocRule(Rule):
    id = "ALLOC001"
    token = "alloc-ok"
    summary = (
        "functions marked @hotpath (or named *fused*) must use out=/in-place "
        "ufunc forms — a bare binary-op assignment allocates a temporary per "
        "step"
    )
    must_flag = (
        "from repro.analysis.registry import hotpath\n"
        "\n"
        "@hotpath\n"
        "def fused_axpy(data, grad, lr, scratch):\n"
        "    scaled = grad * lr\n"
        "    data -= scaled\n"
    )
    must_pass = (
        "import numpy as np\n"
        "from repro.analysis.registry import hotpath\n"
        "\n"
        "@hotpath\n"
        "def fused_axpy(data, grad, lr, scratch):\n"
        "    np.multiply(grad, lr, out=scratch)\n"
        "    data -= scratch\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._designated(node):
                continue
            for stmt in ast.walk(node):
                value: Optional[ast.AST] = None
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Return, ast.Expr)):
                    value = stmt.value
                if value is not None and isinstance(value, ast.BinOp):
                    yield self.finding(
                        ctx,
                        value.lineno,
                        f"bare binary op in fused hot path `{node.name}` "
                        "materializes a fresh temporary every step",
                        "use the out= ufunc form (np.multiply(a, b, out=buf)) "
                        "or an augmented in-place update (buf += g); scalar "
                        "setup math can move out of the hot path or carry "
                        "`# reprolint: alloc-ok -- <why>`",
                    )

    @staticmethod
    def _designated(node) -> bool:
        if _FUSED_NAME.search(node.name):
            return True
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if _tail(_dotted(target)) == "hotpath":
                return True
        return False


# ---------------------------------------------------------------------------
# EXC: exception hygiene
# ---------------------------------------------------------------------------
class BroadExceptRule(Rule):
    id = "EXC001"
    token = "broad-except"
    summary = (
        "`except Exception` hides protocol and programming errors; catch "
        "concrete types, or annotate genuine boundaries"
    )
    must_flag = (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    must_pass = (
        "def load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except (OSError, UnicodeDecodeError):\n"
        "        return None\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None
            for expr in self._handler_types(node.type):
                if _tail(_dotted(expr)) in {"Exception", "BaseException"}:
                    broad = True
            if broad:
                caught = "bare except" if node.type is None else "broad except"
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"{caught} swallows unrelated failures (protocol bugs, "
                    "KeyErrors, typos) along with the one it meant to handle",
                    "catch the concrete exception types this block can recover "
                    "from; a genuine boundary (worker reaping, codec fallback, "
                    "RPC surface) keeps the broad catch with "
                    "`# reprolint: broad-except -- <why>`",
                )

    @staticmethod
    def _handler_types(type_node: Optional[ast.AST]) -> Iterator[ast.AST]:
        if type_node is None:
            return
        if isinstance(type_node, ast.Tuple):
            yield from type_node.elts
        else:
            yield type_node


# ---------------------------------------------------------------------------
# DTYPE: the engine computes in the dtype it was given
# ---------------------------------------------------------------------------
_LITERAL_CONSTANTS: Final = frozenset({"np.pi", "numpy.pi", "math.pi", "np.e", "numpy.e"})
_FLOAT64_UFUNCS: Final = frozenset(
    {f"{np_}.{fn}" for np_ in ("np", "numpy") for fn in ("sqrt", "exp", "log")}
)
_FLOAT64_CTORS: Final = frozenset({"np.float64", "numpy.float64"})


def _is_literal_expr(node: ast.AST) -> bool:
    """Numbers, ``np.pi``/``np.e``, and arithmetic over them."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_literal_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_literal_expr(node.left) and _is_literal_expr(node.right)
    return _dotted(node) in _LITERAL_CONSTANTS


def _is_float64_scalar(node: ast.AST) -> bool:
    """``np.sqrt`` / ``np.exp`` / ``np.log`` of a literal expression: an
    ``np.float64`` scalar, where the bare Python float would be weak."""
    return (
        isinstance(node, ast.Call)
        and _dotted(node.func) in _FLOAT64_UFUNCS
        and len(node.args) == 1
        and not node.keywords
        and _is_literal_expr(node.args[0])
    )


def _bound_float64_scalars(body: List[ast.stmt]) -> set:
    """Names a body's own statements bind to a float64 scalar."""
    names = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign) and _is_float64_scalar(node.value):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


class Float64ScalarRule(Rule):
    id = "DTYPE001"
    token = "float64-scalar"
    summary = (
        "no float64 scalar multiplied into an array in repro/nn numeric "
        "bodies — np.float64(…), or np.sqrt/np.exp/np.log of a literal, "
        "promotes a float32 activation and every gradient below it"
    )
    snippet_rel = "repro/nn/_snippet.py"
    must_flag = (
        "import numpy as np\n"
        "\n"
        "def gelu(x):\n"
        "    c = np.sqrt(2.0 / np.pi)\n"
        "    return 0.5 * x * (1.0 + np.tanh(c * x))\n"
        "\n"
        "def halve(x):\n"
        "    return x * np.float64(0.5)\n"
    )
    must_pass = (
        "import numpy as np\n"
        "\n"
        "def gelu(x):\n"
        "    c = x.dtype.type(np.sqrt(2.0 / np.pi))\n"
        "    return 0.5 * x * (1.0 + np.tanh(c * x))\n"
        "\n"
        "def normalize(x, eps):\n"
        "    return x / np.sqrt(x.var() + eps)\n"
        "\n"
        "def init_std(fan_in):\n"
        "    return np.sqrt(2.0) * 0.5 / np.sqrt(fan_in)\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.rel.startswith("repro/nn/"):
            return
        module_names = _bound_float64_scalars(
            [s for s in ctx.tree.body if isinstance(s, ast.Assign)]
        )
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        nested = set()  # walked with their outermost function's names
        for func in ast.walk(ctx.tree):
            if not isinstance(func, functions) or id(func) in nested:
                continue
            names = module_names | _bound_float64_scalars(func.body)
            for node in ast.walk(func):
                if node is not func and isinstance(node, functions):
                    nested.add(id(node))
                yield from self._check_node(ctx, node, names)

    def _check_node(self, ctx: FileContext, node: ast.AST, names: set) -> Iterator[Finding]:
        if isinstance(node, ast.Call) and _dotted(node.func) in _FLOAT64_CTORS:
            yield self.finding(
                ctx,
                node.lineno,
                f"`{_dotted(node.func)}(…)` in a numeric body builds a float64 "
                "value that promotes any float32 array it meets",
                "build the scalar in the operand's dtype (x.dtype.type(...)) "
                "or keep it a Python float",
            )
            return
        # ``a *= c`` keeps ``a``'s dtype, so only a binary product promotes.
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return
        for scalar, other in ((node.left, node.right), (node.right, node.left)):
            named = isinstance(scalar, ast.Name) and scalar.id in names
            if (named or _is_float64_scalar(scalar)) and not _is_literal_expr(other):
                yield self.finding(
                    ctx,
                    node.lineno,
                    "an np.float64 scalar multiplies an array: a float32 "
                    "operand computes in float64, and so does every gradient "
                    "below it",
                    "cast the constant to the operand's dtype "
                    "(c = x.dtype.type(np.sqrt(2 / np.pi))) — a bare Python "
                    "float would be weak, but an np.float64 is not",
                )
                return


# ---------------------------------------------------------------------------
# DEAD: reachability
# ---------------------------------------------------------------------------
def identifier_uses(node: ast.AST, imports: bool = True) -> Counter:
    """How often each identifier is *used* under ``node``.

    A use is a ``Name``, the attribute of an ``Attribute``, a call
    keyword, or (unless ``imports`` is false — a package ``__init__``
    re-export is not a use) the last component of an imported name.  A
    ``def``'s own name, strings (``__all__``) and docstrings are none of
    these, so they never count.
    """
    uses: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg:
            uses[sub.arg] += 1
        elif imports and isinstance(sub, ast.alias):
            uses[sub.name.rsplit(".", 1)[-1]] += 1
    return uses


def _scoped_defs(body: List[ast.stmt], scope: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every def/class at module or class level."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield scope + stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                yield from _scoped_defs(stmt.body, f"{scope}{stmt.name}.")


class UnreachedDefRule(Rule):
    id = "DEAD001"
    token = "unreached"
    summary = (
        "every def/class under src/repro must be used by name somewhere a run "
        "can start from — src itself, benchmarks, examples, scripts, tools or "
        "the test infrastructure; its own body, a package re-export and its "
        "own test do not count"
    )
    needs_tree = "tree_uses"
    must_flag = (
        "def live(x):\n"
        "    return x + 1\n"
        "\n"
        "\n"
        "def orphan(x):\n"
        "    return orphan(x - 1)\n"
        "\n"
        "\n"
        "RESULT = live(1)\n"
    )
    must_pass = (
        "class Codec:\n"
        "    def encode(self, x):\n"
        "        return self._pad(x)\n"
        "\n"
        "    def _pad(self, x):\n"
        "        return x\n"
        "\n"
        "\n"
        "def roundtrip(codec):\n"
        "    return codec.encode(1)\n"
        "\n"
        "\n"
        "# reprolint: unreached -- Eq. 12: the closed form the figure script's fit is tested against\n"
        "def eq12(x):\n"
        "    return 2 * x\n"
        "\n"
        "\n"
        "RESULT = roundtrip(Codec())\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree_uses is None or not ctx.rel.startswith("repro/"):
            return
        for qualname, node in _scoped_defs(ctx.tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if ctx.tree_uses[name] > identifier_uses(node)[name]:
                continue
            first_line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield self.finding(
                ctx,
                first_line,
                f"`{qualname}` is defined but nothing reaches it: no file in "
                "src/ (outside its own body), benchmarks/, examples/, "
                "scripts/, tools/ or the test infrastructure uses the name",
                "delete it together with its tests; keep it only if it "
                "reproduces a paper equation/figure or is the handle a safety "
                "check is tested through, with `# reprolint: unreached -- "
                "<that anchor>`",
            )


# ---------------------------------------------------------------------------
# KNOB: settable values
# ---------------------------------------------------------------------------
_KNOB_CLASS: Final = re.compile(r"(Config|Spec|Plan)$")
_KNOB_CONTAINER: Final = re.compile(r"\w(Config|Spec|Plan)\b")
#: Where a process listens is the deployment's to choose, not the code's.
_DEPLOYMENT_FIELDS: Final = frozenset({"host", "port"})
#: Calls that read a field by name: their string argument sets nothing.
_NAME_READERS: Final = frozenset({"getattr", "hasattr"})


def knob_settings(node: ast.AST) -> Counter:
    """Every way ``node`` sets a dataclass field, keyed for KNOB001.

    ``Class.field`` is a keyword in a call to ``Class``, ``Class#i`` its
    ``i``-th positional argument and ``Class.*`` a starred one (every
    field, conservatively).  A bare ``field`` is a
    ``dataclasses.replace`` keyword, an attribute store on a receiver
    other than ``self``, or a string literal (``FaultConfig.parse``'s
    keys) — but not the name a ``getattr`` / ``hasattr`` reads.
    """
    sets: Counter = Counter()
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and (name := _tail(_dotted(sub.func))):
            if name in _NAME_READERS and len(sub.args) > 1:
                reads.add(id(sub.args[1]))
            for i, arg in enumerate(sub.args):
                sets[f"{name}.*" if isinstance(arg, ast.Starred) else f"{name}#{i}"] += 1
            prefix = "" if name == "replace" else f"{name}."
            sets.update(prefix + kw.arg for kw in sub.keywords if kw.arg)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            if _dotted(sub.value) != "self":
                sets[sub.attr] += 1
    sets.update(
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant)
        and isinstance(sub.value, str)
        and sub.value.isidentifier()
        and id(sub) not in reads
    )
    return sets


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _tail(_dotted(d.func if isinstance(d, ast.Call) else d)) == "dataclass"
        for d in node.decorator_list
    )


def _init_fields(node: ast.ClassDef) -> Iterator[ast.AnnAssign]:
    """A dataclass's ``__init__`` fields, in order."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        ):
            continue
        yield stmt


def _is_container(annotation: ast.AST) -> bool:
    """A field holding another config (``ACMEConfig.cloud``): its own
    fields are the knobs, and the rule checks them where they live."""
    return _KNOB_CONTAINER.search(ast.unparse(annotation)) is not None


class UnsetKnobRule(Rule):
    id = "KNOB001"
    token = "knob"
    summary = (
        "every field of a *Config / *Spec / *Plan dataclass under src/repro "
        "must be set somewhere a run can start from outside tests/ — a call "
        "keyword or position, a dataclasses.replace keyword, an attribute "
        "store, or a string literal naming it"
    )
    needs_tree = "tree_sets"
    must_flag = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class RunConfig:\n"
        "    epochs: int = 3\n"
        "    momentum: float = 0.9\n"
        "\n"
        "\n"
        "CONFIG = RunConfig(epochs=5)\n"
        "MOMENTUM = getattr(CONFIG, 'momentum')\n"
    )
    must_pass = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class NetSpec:\n"
        "    width: int = 8\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class RunConfig:\n"
        "    epochs: int = 3\n"
        "    lr: float = 1e-3\n"
        "    net: NetSpec = field(default_factory=NetSpec)\n"
        "    drop: float = 0.0\n"
        "    tau: float = 1.0  # reprolint: knob -- Eq. 4: the paper's temperature τ\n"
        "\n"
        "\n"
        "CONFIG = dataclasses.replace(RunConfig(5), lr=0.01)\n"
        "CONFIG.net.width = 16\n"
        "OVERRIDE = ('drop', 0.1)\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree_sets is None or not ctx.rel.startswith("repro/"):
            return
        sets = ctx.tree_sets
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.ClassDef)
                and _KNOB_CLASS.search(node.name)
                and _is_dataclass(node)
            ):
                continue
            cls = node.name
            for index, stmt in enumerate(_init_fields(node)):
                name = stmt.target.id  # type: ignore[attr-defined]
                keys = (f"{cls}.{name}", f"{cls}#{index}", f"{cls}.*", name)
                if (
                    name in _DEPLOYMENT_FIELDS
                    or _is_container(stmt.annotation)
                    or any(sets[key] for key in keys)
                ):
                    continue
                yield self.finding(
                    ctx,
                    stmt.lineno,
                    f"`{cls}.{name}` is settable but nothing outside tests/ "
                    "sets it: src/, benchmarks/, examples/, scripts/ and "
                    "tools/ hold no call keyword or position, "
                    "dataclasses.replace keyword, attribute store or string "
                    "literal for it",
                    "make it a module constant with its current default and "
                    "rewrite the tests that varied it; keep it only if it is "
                    "a paper symbol or a tested safety limit, with "
                    "`# reprolint: knob -- <that anchor>`",
                )


RULES: Final[Tuple[Rule, ...]] = (
    GlobalRandomRule(),
    FixedRngRule(),
    WallClockRule(),
    SetOrderRule(),
    ModuleMutableRule(),
    UnregisteredLockRule(),
    HotPathAllocRule(),
    BroadExceptRule(),
    Float64ScalarRule(),
    UnreachedDefRule(),
    UnsetKnobRule(),
)


def rule_tokens() -> frozenset:
    """Every valid suppression token."""
    return frozenset(rule.token for rule in RULES)
