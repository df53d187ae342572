"""Weak-memory component state in normal form: operations named by their
position on their own variable.

A component (client or library) keeps one column per variable: the
variable's operations by position, and the view each one recorded (the
writer's viewfront over both components).  Beside them are a per-thread
view naming for each variable the earliest operation the thread may still
observe, and (for queues) the matched enqueue/dequeue pairs.  The covered
operations are read off positions: an update or a lock acquire covers the
operation it is inserted right after, and no rule inserts after a covered
operation, so an operation is covered exactly when the next one on its
variable is an update or an acquire.

The semantics only ever compares timestamps by their order, and only of
operations on the same variable, so an operation's timestamp is its dense
position on its variable: 0 for the initial operation, 1..n-1 for the
others.  That one name is used by views, recorded views, matched pairs and
step labels.  Inserting an operation right after a predecessor gives it
the predecessor's position plus one and moves every later position on that
variable up by one, also where the other component's recorded views refer
to it; no other position changes.  So a step rebuilds the columns it
changes and shares every other one with the state it came from.  A state
is held in tuples of ints and interned actions and is its own canonical
form: equal states have equal tuples, which is what a system hash-conses
them on, so within one system equality of states is identity.

So states that differ only in how operations on different variables
interleaved in time are one state.  No rule tells them apart, because none
compares operations on different variables: memory rules read and insert
on one variable after the thread's view of it, and recorded views join
views column by column; object rules order one object's timeline, whose
matched pairs relate operations of one queue; assertion atoms compare a
view of x with operations on x; refinement projects the client variable by
variable.  Every transition, assertion and projection of one such state has
an equal counterpart in the other, so the outcomes and verdicts are those
of the unmerged state space.

A reduced run drops a queue's dead prefix, the operations that no rule can
touch again (`forget_prefix`, `objects.queue_dead_prefix`), and renumbers
the rest from 0.  There a reference below the kept operations, in a
recorded view or a matched pair, is -1, and the first kept operation need
not be the initial one.
"""

from __future__ import annotations

from collections import namedtuple
from types import FunctionType


class Sym:
    """A symbolic value: bottom, empty or a boolean.  Each is one object,
    equal only to itself, so no symbol equals a number; only FALSE is
    falsy."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return self is not FALSE

    def __reduce__(self):
        # copies and pickles are the module-level object of that name
        return self.name.upper()


BOT = Sym("bot")
EMPTY = Sym("empty")
TRUE = Sym("true")
FALSE = Sym("false")

# The register that receives every method call's result.  No input names
# it: the lexer's names never hold a '$', and neither do the client's.
RVAL = "$rval"

# Sync modes
RLX = "rlx"
REL = "rel"
ACQ = "acq"
RA = "ra"
OBJ = "obj"

# Action kinds
WRITE = "write"
READ = "read"
UPDATE = "update"
LOCK_INIT = "lock_init"
LOCK_ACQUIRE = "lock_acquire"
LOCK_RELEASE = "lock_release"
QUEUE_INIT = "queue_init"
ENQUEUE = "enqueue"
DEQUEUE = "dequeue"


class Record:
    """Base of immutable records: value objects declared with `record`, with
    slots (no per-instance `__dict__`), equal when they are of one class
    with equal fields, and printed as `Name(field=value, ...)`.
    """

    __slots__ = ()
    _fields = ()  # every field, in constructor order

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self), *self._key()))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor
        return type(self), tuple(map(self.__getattribute__, self._fields))


class Hashed(Record):
    """Base of the records used as dictionary keys: actions, commands,
    expressions and assertions.  Subclasses are declared with `hashed`.

    The hash is computed once, at construction, from the fields' own
    (already stored) hashes and kept in a slot, so hashing a tree costs the
    same at any depth, and equality compares it before the fields.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


def _build(cls, keyed):
    """cls rebuilt with its annotated fields as slots, and an `__init__`
    that takes them, with their defaults.  Keyed (`Hashed`), `__init__`
    also stores the hash, and an `__eq__` compares it before the fields."""
    ns = dict(cls.__dict__)
    fields = tuple(ns.get("__annotations__", ()))
    given = [f in ns for f in fields]
    if given != sorted(given):
        raise TypeError(f"{cls.__name__}: a field without a default follows "
                        "one with a default")
    defaults = tuple(ns.pop(f) for f in fields if f in ns)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns.update(__slots__=fields, _fields=fields)
    cls = type(cls)(cls.__name__, cls.__bases__, ns)

    env = {"_cls": cls, "_set_hash": Hashed._hash.__set__}
    env.update((f"_set{i}", cls.__dict__[f].__set__)
               for i, f in enumerate(fields))
    init = _code("hashed" if keyed else "record", len(fields))
    cls.__init__ = FunctionType(init.replace(co_varnames=("self", *fields)),
                                env, "__init__", defaults or None)
    if keyed:
        eq = _code("eq", len(fields))
        named = {f"f{i}": f for i, f in enumerate(fields)}
        cls.__eq__ = FunctionType(eq.replace(co_names=tuple(
            named.get(n, n) for n in eq.co_names)), env, "__eq__")
    return cls


_CODES = {}


def _code(kind, n):
    """The code of a record's `__init__` or a hashed record's `__eq__`
    (kind 'record', 'hashed' or 'eq') over n fields named f0, f1, ...,
    compiled once per kind and n.  `_build` renames the fields in a copy:
    compiling costs ten times what making the class does."""
    code = _CODES.get((kind, n))
    if code is None:
        fs = [f"f{i}" for i in range(n)]
        if kind == "eq":
            src = ("def __eq__(self, other):\n"
                   "    if other.__class__ is not _cls:\n"
                   "        return NotImplemented\n"
                   "    return self._hash == other._hash and ("
                   + "".join(f"self.{f}, " for f in fs) + ") == ("
                   + "".join(f"other.{f}, " for f in fs) + ")\n")
        else:
            body = [f"_set{i}(self, {f})" for i, f in enumerate(fs)]
            if kind == "hashed":
                body.append("_set_hash(self, hash((_cls, "
                            + "".join(f + ", " for f in fs) + ")))")
            src = (f"def __init__(self, {', '.join(fs)}):\n    "
                   + ("; ".join(body) or "pass") + "\n")
        env = {}
        exec(src, env)
        name = "__eq__" if kind == "eq" else "__init__"
        code = _CODES[kind, n] = env[name].__code__
    return code


def record(cls):
    """Declare a subclass of Record from its annotated fields."""
    return _build(cls, False)


def hashed(cls):
    """Declare a subclass of Hashed from its annotated fields."""
    return _build(cls, True)


@hashed
class Action(Hashed):
    kind: str
    var: str
    val: object = None  # written / read / enqueued / dequeued value
    aux: object = None  # update: the value read; open read: a value skipped
    sync: str = RLX
    owner: object = None  # lock acquire only: owning thread
    index: object = None  # lock ops only: operation counter

    def __repr__(self):
        if self.kind == WRITE:
            return f"wr{'R' if self.sync == REL else ''}({self.var},{self.val})"
        if self.kind == READ:
            return f"rd{'A' if self.sync == ACQ else ''}({self.var},{self.val})"
        if self.kind == UPDATE:
            return f"upd({self.var},{self.aux},{self.val})"
        if self.kind == LOCK_INIT:
            return f"{self.var}.init_{self.index}"
        if self.kind == LOCK_ACQUIRE:
            return f"{self.var}.acquire_{self.index}({self.owner})"
        if self.kind == LOCK_RELEASE:
            return f"{self.var}.release_{self.index}"
        if self.kind == QUEUE_INIT:
            return f"{self.var}.init"
        if self.kind == ENQUEUE:
            return f"{self.var}.enq({self.val})"
        if self.kind == DEQUEUE:
            return f"{self.var}.deq({self.val})"
        return f"{self.kind}({self.var})"


def write(x, v, releasing=False):
    return Action(WRITE, x, val=v, sync=REL if releasing else RLX)


def update(x, old, new):
    return Action(UPDATE, x, val=new, aux=old, sync=RA)


# A thread proposes these with the value read open (None); the memory rules
# bind it from each write the thread can observe (`memory.mem_read`,
# `memory.mem_update`).

def open_read(x, acquiring=False, skip=None):
    """A read of any observable write; with `skip`, of any write of another
    value (the failure branch of a CAS expecting `skip`)."""
    return Action(READ, x, aux=skip, sync=ACQ if acquiring else RLX)


def fai(x):
    """A fetch-and-increment: an update that reads an integer v and writes
    v + 1."""
    return Action(UPDATE, x, sync=RA)


def wrval(a: Action):
    """The value that a write, an update or an enqueue puts on its
    variable's timeline.  The engine passes only operations of a variable's
    column, which are all writes and updates."""
    return a.val


def is_releasing_write(a: Action) -> bool:
    return (a.kind == WRITE and a.sync == REL) or a.kind == UPDATE


def is_acquiring_read(a: Action) -> bool:
    return (a.kind == READ and a.sync == ACQ) or a.kind == UPDATE


# the kinds of operation that cover the one they are inserted right after
_COVERING = frozenset((UPDATE, LOCK_ACQUIRE))


class TOp(namedtuple("TOp", "action ts")):
    """An operation: its action and its position on its variable (ts)."""

    __slots__ = ()

    def __repr__(self):
        return f"({self.action}@{self.ts})"


class StateError(Exception):
    pass


class Layout:
    """What every state of one component shares: its own variables (one
    column each, in this order), the other component's variables, and the
    threads."""

    def __init__(self, own, other, threads):
        self.own = tuple(own)
        self.other = tuple(other)
        self.threads = tuple(threads)
        self.vix = {x: i for i, x in enumerate(self.own)}
        self.tix = {t: i for i, t in enumerate(self.threads)}
        self._actions = {}

    def intern(self, a: Action) -> Action:
        """One shared object per action."""
        return self._actions.setdefault(a, a)


def merge_views(v1: tuple, v2: tuple) -> tuple:
    """Pointwise-later combination; the result has v1's variables (v2 may be
    a recorded view, which continues with the other component's)."""
    return tuple(map(max, v1, v2))


def acquire_views(tv: tuple, ctv: tuple, src: tuple):
    """A thread's views of its own component (tv) and of the other (ctv)
    after it synchronises with an operation whose recorded view is src:
    positions on the own component's variables, then on the other's."""
    return merge_views(tv, src), merge_views(ctv, src[len(tv):])


def _put(items: tuple, i: int, item) -> tuple:
    """items with its i-th entry replaced by item."""
    return items[:i] + (item,) + items[i + 1:]


def _up(view: tuple, i: int, nr: int) -> tuple:
    """view with its entry i moved up by one if at or above nr."""
    r = view[i]
    return view if r < nr else _put(view, i, r + 1)


class ComponentState:
    """One side's weak-memory state (client or library), in normal form.

    Each own variable has a column of its own, in layout order: position r
    on the xi-th variable is index r of its column.
      acts     per variable, its actions by position;
      views    per thread (layout order), the position viewed on each own
               variable;
      mviews   per variable, the recorded view of each position: positions
               on the own variables, then on the other component's;
      matched  sorted (enqueue, dequeue) pairs of queue positions.
    A step rebuilds the columns it changes and shares the others.
    """

    __slots__ = ("lay", "acts", "views", "mviews", "matched")

    def __init__(self, lay, acts, views, mviews, matched=()):
        self.lay = lay
        self.acts = acts
        self.views = views
        self.mviews = mviews
        self.matched = matched

    def _parts(self):
        """The content: what two equal states share (the layout aside)."""
        return self.acts, self.views, self.mviews, self.matched

    def __repr__(self):
        ops = [op for x in self.lay.own for op in self.ops_on(x)]
        return f"ComponentState({ops})"

    # --- operations --------------------------------------------------------

    def ops_on(self, x: str, lo: int = 0) -> list:
        """Operations on x, one of this component's variables, in timestamp
        order, from position lo on."""
        col = self.acts[self.lay.vix[x]]
        return [TOp(col[r], r) for r in range(lo, len(col))]

    def column(self, x: str) -> tuple:
        """The actions on x in position order: position r is index r."""
        return self.acts[self.lay.vix[x]]

    def max_op(self, x: str) -> TOp:
        xi = self.lay.vix.get(x)
        if xi is None:
            raise StateError(f"no operation on {x!r}")
        col = self.acts[xi]
        return TOp(col[-1], len(col) - 1)

    # --- views -------------------------------------------------------------

    def view(self, t) -> tuple:
        return self.views[self.lay.tix[t]]

    def with_view(self, t, view: tuple) -> "ComponentState":
        return ComponentState(self.lay, self.acts,
                              _put(self.views, self.lay.tix[t], view),
                              self.mviews, self.matched)

    def front(self, t, x: str):
        """Position of thread t's view of x, or None if either is unknown."""
        ti, xi = self.lay.tix.get(t), self.lay.vix.get(x)
        return None if ti is None or xi is None else self.views[ti][xi]

    def obs(self, t, x: str) -> list:
        """Operations on x at or after thread t's viewfront of x."""
        lo = self.front(t, x)
        if lo is None:
            raise StateError(f"no view for thread {t} at {x!r}")
        return self.ops_on(x, lo)

    def mview_of(self, op: TOp) -> tuple:
        """op's recorded view: own variables, then the other component's."""
        return self.mviews[self.lay.vix[op.action.var]][op.ts]

    def recorded(self, op: TOp) -> dict:
        """op's recorded view as variable (of either component) ->
        position."""
        return dict(zip(self.lay.own + self.lay.other, self.mview_of(op)))

    def covers(self, op: TOp) -> bool:
        """Whether an update or an acquire follows op on its variable."""
        col = self.acts[self.lay.vix[op.action.var]]
        nxt = op.ts + 1
        return nxt < len(col) and col[nxt].kind in _COVERING


def insert_fresh_timestamp(state: ComponentState, other: ComponentState, t,
                           pred: int, action: Action, sync_from=None,
                           match=False):
    """Thread t adds `action` right after the operation at position `pred`
    on the action's variable.

    The new operation takes position pred + 1; every later position on that
    variable moves up by one, in this state and in `other`'s recorded
    views, and no other position changes.  Thread t's view of the variable
    moves to the new operation.  With sync_from (a position on the same
    variable), t's views in both components first take in that operation's
    recorded view (`acquire_views`).  match pairs sync_from (an enqueue)
    with the new operation.  The new operation records t's resulting
    views; an update or an acquire covers the predecessor (`covers`).
    The variable's two columns are rebuilt, and when later positions move,
    so are the recorded-view columns of both components; every other
    column is shared.

    Returns (state', other', new operation).
    """
    lay = state.lay
    x = action.var
    xi = lay.vix.get(x)
    col = () if xi is None else state.acts[xi]
    if not 0 <= pred < len(col):
        raise StateError(f"no operation at position {pred} on {x!r}")
    ti = lay.tix[t]
    nr = pred + 1
    action = lay.intern(action)

    views, mviews = state.views, state.mviews
    tv, ctv = views[ti], other.views[ti]
    if sync_from is not None:
        tv, ctv = acquire_views(tv, ctv, mviews[xi][sync_from])
    tv = _put(tv, xi, nr)

    matched, omviews = state.matched, other.mviews
    if nr < len(col):  # later positions on x move up; a new top moves none
        views = tuple(_up(v, xi, nr) for v in views)
        mviews = tuple(tuple(_up(v, xi, nr) for v in c) for c in mviews)
        matched = tuple((e + (e >= nr), d + (d >= nr)) for e, d in matched)
        oxi = len(other.lay.own) + xi  # x's entry in other's recorded views
        omviews = tuple(tuple(_up(v, oxi, nr) for v in c) for c in omviews)
    mcol = mviews[xi]
    if match:
        matched = tuple(sorted(matched + ((sync_from, nr),)))
    state2 = ComponentState(lay, _put(state.acts, xi,
                                      col[:nr] + (action,) + col[nr:]),
                            _put(views, ti, tv),
                            _put(mviews, xi,
                                 mcol[:nr] + (tv + ctv,) + mcol[nr:]),
                            matched)
    oviews = other.views
    if ctv != oviews[ti]:
        oviews = _put(oviews, ti, ctv)
    other2 = other  # the very object when nothing in it moved
    if oviews is not other.views or omviews != other.mviews:
        other2 = ComponentState(other.lay, other.acts, oviews, omviews,
                                other.matched)
    return state2, other2, TOp(action, nr)


def _down(view: tuple, i: int, n: int) -> tuple:
    """view with its entry i moved down by n, or to -1 if below n."""
    r = view[i]
    return _put(view, i, r - n if r >= n else -1)


def forget_prefix(state: ComponentState, other: ComponentState, x: str,
                  n: int):
    """state and other with the first n operations on state's variable x
    dropped, when no rule can read, insert after or sync from them again
    (`objects.queue_dead_prefix`).

    Every position on x moves down by n: in x's two columns, in every
    thread's view, in the recorded views of both components, and in the
    matched pairs.  A reference below n becomes -1, not 0: it only ever
    meets a max with a view of at least n, so it has no effect, where 0
    would name the first kept operation.  A pair whose enqueue is dropped
    keeps its dequeue marked as matched, as (-1, d); a pair wholly dropped
    goes.  The other variables' columns of actions are shared.

    Returns (state', other'); other' is `other` itself when it records no
    view of x."""
    xi = state.lay.vix[x]
    mviews = tuple(tuple(_down(v, xi, n) for v in c) for c in state.mviews)
    matched = tuple(sorted((e - n if e >= n else -1, d - n)
                           for e, d in state.matched if d >= n))
    state2 = ComponentState(
        state.lay, _put(state.acts, xi, state.acts[xi][n:]),
        tuple(_down(v, xi, n) for v in state.views),
        _put(mviews, xi, mviews[xi][n:]), matched)
    if not other.mviews:
        return state2, other
    oxi = len(other.lay.own) + xi  # x's entry in other's recorded views
    return state2, ComponentState(
        other.lay, other.acts, other.views,
        tuple(tuple(_down(v, oxi, n) for v in c) for c in other.mviews),
        other.matched)


def _init_writes(assigns) -> list:
    """The initial write of each (variable, value) pair, in order; each
    variable is initialised once."""
    seen = set()
    for x, _ in assigns:
        if x in seen:
            raise StateError(f"duplicate initialisation of {x!r}")
        seen.add(x)
    return [write(x, v) for x, v in assigns]


def make_init_states(init_assigns, library, threads, local_inits=None):
    """Initial local states and component states.

    init_assigns: ordered (variable, value) pairs for the client globals,
                  which are exactly the client's variables
    library: the library component's initial actions (an object's or an
             implementation's `init_actions()`; none without either)
    """
    threads = sorted(threads)
    gacts = _init_writes(init_assigns)

    def component(acts, other_acts):
        lay = Layout((a.var for a in acts), (a.var for a in other_acts),
                     threads)
        zeros = (0,) * len(acts)
        everything = ((0,) * (len(acts) + len(other_acts)),)
        return ComponentState(lay, tuple((lay.intern(a),) for a in acts),
                              (zeros,) * len(threads),
                              (everything,) * len(acts))

    gamma = component(gacts, library)
    beta = component(library, gacts)
    rho = {t: {RVAL: BOT} for t in threads}
    if local_inits:
        for t, assigns in local_inits.items():
            rho[t].update(assigns)
    return rho, gamma, beta
