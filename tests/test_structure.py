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


def violations(source, allow_heap_push=False):
    """``(line, what)`` for each kernel-internal write in ``source``."""
    tree = ast.parse(source)
    aliases = _heap_aliases(tree)
    found = []
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
        if isinstance(node, ast.Call) and _is_heappush(node.func) \
                and node.args and not allow_heap_push:
            heap = node.args[0]
            if (isinstance(heap, ast.Attribute) and heap.attr == "_heap") \
                    or (isinstance(heap, ast.Name) and heap.id in aliases):
                found.append((node.lineno, "heappush onto sim._heap"))
    return found


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
