"""A traced MAMP run leaves the pilot layer's whole lifecycle in the
trace, its only record: on the serial and the process backend, every
unit's ``unit.state`` events walk a legal path from NEW to DONE and every
pilot's ``pilot.state`` events end in DONE.

Each pilot is finished when its stage hands over: under scheme S1 its
fleet goes with it, under S2 the fleet it borrowed stays for the next
pilot.
"""

import pytest

from repro.core.assembly_cache import use_assembly_cache
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.core.schemes import MatchingScheme
from repro.obs import Tracer
from repro.pilot.states import UNIT_TRANSITIONS, UnitState

ASSEMBLERS = ("ray", "abyss", "velvet")
KS = (25, 31)


@pytest.fixture(
    scope="module",
    params=[("serial", "S1"), ("process", "S1"), ("serial", "S2")],
    ids=["serial", "process", "serial-S2"],
)
def tracer(request, ds_single):
    tracer = Tracer()
    executor, scheme = request.param
    config = PipelineConfig(
        assemblers=ASSEMBLERS,
        kmer_list=KS,
        scheme=MatchingScheme.parse(scheme),
        executor=executor,
        executor_workers=2,
    )
    with use_assembly_cache(None):
        RnnotatorPipeline(tracer=tracer).run(ds_single, config)
    return tracer


def moves_by(tracer, name: str, key: str) -> dict[str, list[tuple[str, str]]]:
    """``(old, new)`` of every ``name`` event, grouped by the record's
    ``key`` track (``thread`` = unit id, ``process`` = pilot id)."""
    out: dict[str, list[tuple[str, str]]] = {}
    for e in tracer.events:
        if e.name == name:
            out.setdefault(getattr(e, key), []).append(
                (e.attrs["old"], e.attrs["new"])
            )
    return out


def test_every_unit_walks_a_legal_path_to_done(tracer):
    units = moves_by(tracer, "unit.state", "thread")
    assembly = {
        e.thread for e in tracer.events
        if e.name == "unit.state" and e.attrs["stage"] == "transcript-assembly"
    }
    assert len(assembly) == len(ASSEMBLERS) * len(KS)
    for unit_id, moves in units.items():
        assert moves[0][0] == UnitState.NEW.value, unit_id
        assert moves[-1][1] == UnitState.DONE.value, unit_id
        for (_, new), (old, _) in zip(moves, moves[1:]):
            assert new == old, unit_id  # one chain, no gaps
        for old, new in moves:
            assert UnitState(new) in UNIT_TRANSITIONS[UnitState(old)], unit_id


def test_every_pilot_ends_done(tracer):
    pilots = moves_by(tracer, "pilot.state", "process")
    assert pilots
    for pilot_id, moves in pilots.items():
        assert moves[0][0] == "NEW", pilot_id
        assert moves[-1][1] == "DONE", pilot_id
