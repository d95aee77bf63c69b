"""Structure guard: the kernel's Timer protocol lives in one module.

``repro.core.engine`` owns the heap-entry and timer bookkeeping.  Any
other module that bumps a timer's ``_version``, writes its ``_armed``
flag, counts ``_cancelled_events`` or pushes onto ``sim._heap`` is a
hand-inlined copy of ``Timer`` / ``Simulator`` that can drift from the
run loop.  Components call ``Timer.schedule_at`` / ``Timer.cancel``
instead.  The only allowed exception is the medium's per-receiver
arrival fan-out (``phy/channel.py`` and its sharded twin
``parallel/shard.py``), which pushes raw fire-and-forget entries.
Reading these fields (as ``faults/invariants.py`` does) is fine.

The guard also keeps the heap at two entry shapes, ``(time, seq,
timer, version)`` and ``(time, seq, None, callback, args)``: the
fan-out sites push only the raw shape, the engine pushes no
three-element entry, and the compiled kernel has no handle branch.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
OWNER = "core/engine.py"
FANOUT_SITES = {"phy/channel.py", "parallel/shard.py"}
TIMER_FIELDS = {"_version", "_armed", "_cancelled_events"}


def _heap_aliases(tree):
    """Local names bound to some ``<obj>._heap`` attribute."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "_heap":
            aliases.update(target.id for target in node.targets
                           if isinstance(target, ast.Name))
    return aliases


def _is_heappush(func):
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else ""
    return name.lstrip("_") == "heappush"


def heap_pushes(tree):
    """``(line, entry node)`` for each heappush onto ``<obj>._heap`` (or
    a local alias of it) in ``tree``."""
    aliases = _heap_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_heappush(node.func) \
                and len(node.args) == 2:
            heap = node.args[0]
            if (isinstance(heap, ast.Attribute) and heap.attr == "_heap") \
                    or (isinstance(heap, ast.Name) and heap.id in aliases):
                yield node.lineno, node.args[1]


def _is_raw_entry(entry):
    return isinstance(entry, ast.Tuple) and len(entry.elts) == 5 \
        and isinstance(entry.elts[2], ast.Constant) \
        and entry.elts[2].value is None


def violations(source, allow_heap_push=False):
    """``(line, what)`` for each kernel-internal write in ``source``."""
    tree = ast.parse(source)
    found = []
    if not allow_heap_push:
        found.extend((line, "heappush onto sim._heap")
                     for line, _entry in heap_pushes(tree))
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and target.attr in TIMER_FIELDS:
                found.append((node.lineno, f"writes .{target.attr}"))
    return sorted(found)


def test_only_the_engine_touches_timer_and_heap_internals():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the scan really saw the package
    offenders = []
    for path in modules:
        relative = path.relative_to(SRC).as_posix()
        if relative == OWNER:
            continue
        for line, what in violations(
                path.read_text(), allow_heap_push=relative in FANOUT_SITES):
            offenders.append(f"src/repro/{relative}:{line}: {what}")
    assert offenders == [], (
        "call Timer.schedule_at / Timer.cancel instead of inlining "
        "them:\n" + "\n".join(offenders))


def test_guard_catches_an_inlined_timer():
    inlined = '''
from heapq import heappush as _heappush

def arm(sim, timer, time):
    if timer._armed:
        sim._cancelled_events += 1
    else:
        timer._armed = True
    timer._version += 1
    _heappush(sim._heap, (time, sim._next_seq(), timer, timer._version))

def fan_out(sim, entry):
    heap = sim._heap
    _heappush(heap, entry)
'''
    found = [what for _line, what in violations(inlined)]
    assert found.count("writes ._armed") == 1
    assert found.count("writes ._cancelled_events") == 1
    assert found.count("writes ._version") == 1
    assert found.count("heappush onto sim._heap") == 2
    # Reads are allowed, and so is a module's own private heap.
    assert violations("def live(t, e):\n    return t._armed and "
                      "t._version == e[3]\n") == []
    assert violations("import heapq\nq = []\nheapq.heappush(q, 1)\n") == []
    # The shape check tells a raw fan-out entry from a three-element one.
    pushes = heap_pushes(ast.parse(
        "def push(sim, handle, cb):\n"
        "    _heappush(sim._heap, (1.0, 0, handle))\n"
        "    _heappush(sim._heap, (1.0, 1, None, cb, ()))\n"))
    assert [_is_raw_entry(entry) for _line, entry in pushes] == [False, True]


def test_fanout_sites_push_only_raw_entries():
    pushes = 0
    for relative in sorted(FANOUT_SITES):
        tree = ast.parse((SRC / relative).read_text())
        for line, entry in heap_pushes(tree):
            pushes += 1
            assert _is_raw_entry(entry), (
                f"src/repro/{relative}:{line}: fan-out pushes must be "
                "(time, seq, None, callback, args) literals")
    assert pushes == 6  # the scan really saw both fan-outs


def test_engine_pushes_two_shapes_only():
    tree = ast.parse((SRC / OWNER).read_text())
    shapes = sorted(len(entry.elts) for _line, entry in heap_pushes(tree)
                    if isinstance(entry, ast.Tuple))
    assert shapes == [4, 4, 4, 5, 5]  # Timer, schedule, schedule_at; fast
    ckernel = (SRC / "core" / "_ckernel.c").read_text()
    assert "handle_type" not in ckernel

