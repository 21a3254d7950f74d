"""The history a verification pass hands on ≡ the tree-walking rules.

Routing, the join check, the TFC's lookups and ``append_cer`` read the
:class:`~repro.document.history.CerHistory` the receiver's verification
pass built instead of walking the document.  Over the fuzz suite's
topologies (random seeds, loop, diamond, chain and amendments, both
operational models) every hop's bytes are verified cold and through one
:class:`~repro.document.resume.KeptPasses` (so most passes resume), and
both histories, and one built from the empty state, must give the
reference's frontier, execution counts, cascade signatures, pending
intermediates, cascade targets and join verdict for every activity of
the definition (``tests/document/history_reference.py``).
"""

from __future__ import annotations

import pytest

from repro.core.aea import ActivityExecutionAgent
from repro.core.router import cascade_targets, check_join_ready
from repro.document import verify as verify_module
from repro.document.amendments import DelegateActivity, GrantReader
from repro.document.document import Dra4wfmsDocument
from repro.document.history import CerHistory
from repro.document.resume import KeptPasses
from repro.document.verify import verify_document
from repro.errors import ReproError
from repro.xmlsec.canonical import canonicalize

from ..document.history_reference import (
    reference_cascade_signature_of,
    reference_cascade_targets,
    reference_check_join_ready,
    reference_execution_count,
    reference_frontier,
    reference_pending_intermediate,
)
from .test_fuzz_workflows import (
    DESIGNER,
    POOL,
    RANDOM_SEEDS,
    _run,
    chain_definition,
    diamond_definition,
    fuzz_world,  # noqa: F401 - fixture
    hop_documents,
    loop_definition,
    random_definition,
)


@pytest.fixture()
def resumptions(monkeypatch):
    """Whether each pass given a store resumed its kept state."""
    seen: list[bool] = []
    resumed = verify_module._resumed

    def spy(*args):
        state = resumed(*args)
        seen.append(state is not None)
        return state

    monkeypatch.setattr(verify_module, "_resumed", spy)
    return seen


def outcome(call):
    """``None``, the value of *call*, or its exception type and message."""
    try:
        return call()
    except ReproError as exc:
        return type(exc), str(exc)


def ids(elements):
    return [element.get("Id") for element in elements]


def cer_ids(cers):
    return [cer.cer_id for cer in cers]


def rules(definition, lookups):
    """Every rule's answer for every activity of *definition*, from
    *lookups*: a history's rules or the tree-walking reference."""
    frontier, count, cascade_of, pending, targets, join = lookups
    answers = {"frontier": cer_ids(frontier()),
               "pending": cer_ids(pending())}
    for activity_id in sorted(definition.activities):
        executed = count(activity_id)
        signatures = [cascade_of(activity_id, k) for k in range(executed + 1)]
        answers[activity_id] = (
            executed,
            [None if cer is None else cer.cer_id for cer in signatures],
            outcome(lambda: ids(targets(activity_id))),
            outcome(lambda: join(activity_id)),
        )
    return answers


def history_rules(document, history, definition):
    return rules(definition, (
        history.frontier, history.execution_count,
        history.cascade_signature_of, history.pending_intermediate,
        lambda a: cascade_targets(document, definition, a),
        lambda a: check_join_ready(document, definition, a),
    ))


def reference_rules(document, definition):
    return rules(definition, (
        lambda: reference_frontier(document),
        lambda a: reference_execution_count(document, a),
        lambda a, k: reference_cascade_signature_of(document, a, k),
        lambda: reference_pending_intermediate(document),
        lambda a: reference_cascade_targets(document, definition, a),
        lambda a: reference_check_join_ready(document, definition, a),
    ))


def without_last_cer(document: Dra4wfmsDocument) -> bytes:
    copy = document.clone()
    copy.results_section.remove(copy.results_section[-1])
    return canonicalize(copy.root)


def receipts(documents, advanced):
    """The bytes each receiver sees, in order: in the advanced model the
    TFC first sees each hop's document before its TFC CER."""
    out = []
    for hop, document in enumerate(documents):
        if advanced and hop > 0:
            out.append(without_last_cer(document))
        out.append(document.to_bytes())
    return out


def assert_histories_match(datas, world, backend, definition,
                           resumptions, tfc_identities=None):
    """Verify each of *datas* cold and through one store; every history
    must answer every rule as the reference does."""
    store = KeptPasses()
    for hop, data in enumerate(datas):
        reference = Dra4wfmsDocument.from_bytes(data)
        for kept in (None, store):
            report = verify_document(data, world.directory, backend,
                                     tfc_identities=tfc_identities,
                                     kept=kept)
            document, history = report.document, report.history
            assert document.history() is history
            effective = report.definition or definition
            want = reference_rules(reference, effective)
            assert history_rules(document, history, effective) == want, \
                f"receipt {hop}, kept={kept is not None}"
            built = CerHistory.of(reference)
            assert history_rules(reference, built, effective) == want
    assert True in resumptions


def _topology(fuzz_world, backend, definition, mode, resumptions,
              loop_iterations=1):
    initial, trace, tfc = _run(fuzz_world, backend, definition, mode,
                               loop_iterations=loop_iterations)
    datas = receipts(hop_documents(initial, trace), mode == "advanced")
    assert_histories_match(
        datas, fuzz_world, backend, definition, resumptions,
        tfc_identities={tfc.identity} if tfc is not None else None)


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_basic_model(self, fuzz_world, backend, seed, resumptions):
        definition = random_definition(seed, blocks=3, designer=DESIGNER)
        _topology(fuzz_world, backend, definition, "basic", resumptions)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_advanced_model(self, fuzz_world, backend, seed, resumptions):
        definition = random_definition(seed, blocks=2, designer=DESIGNER)
        _topology(fuzz_world, backend, definition, "advanced", resumptions)


@pytest.mark.parametrize("mode", ["basic", "advanced"])
class TestStructuredTopologies:
    def test_loop(self, fuzz_world, backend, mode, resumptions):
        definition = loop_definition(2, POOL, designer=DESIGNER)
        _topology(fuzz_world, backend, definition, mode, resumptions,
                  loop_iterations=2)

    def test_diamond(self, fuzz_world, backend, mode, resumptions):
        definition = diamond_definition(3, POOL, designer=DESIGNER)
        _topology(fuzz_world, backend, definition, mode, resumptions)

    def test_chain(self, fuzz_world, backend, mode, resumptions):
        definition = chain_definition(6, POOL, designer=DESIGNER)
        _topology(fuzz_world, backend, definition, mode, resumptions)


AMENDMENTS = {
    "grant": (chain_definition(4, POOL, designer=DESIGNER), [
        GrantReader(activity_id="A1", fieldname="v1", reader=POOL[5],
                    reason="fuzz: post-hoc audit grant")]),
    "delegate": (chain_definition(4, POOL, designer=DESIGNER), [
        DelegateActivity(activity_id="A3", new_participant=POOL[4],
                         reason="fuzz: reassignment")]),
    "stacked": (diamond_definition(2, POOL, designer=DESIGNER), [
        GrantReader(activity_id="S", fieldname="subject", reader=POOL[4],
                    reason="fuzz: first grant"),
        GrantReader(activity_id="J", fieldname="verdict", reader=POOL[5],
                    reason="fuzz: second grant")]),
}


@pytest.mark.parametrize("name", sorted(AMENDMENTS))
def test_amended_workflow(fuzz_world, backend, name, resumptions):
    """Amendment CERs join the frontier until a later CER countersigns
    them."""
    definition, amendments = AMENDMENTS[name]
    initial, trace, _ = _run(fuzz_world, backend, definition, "basic")
    documents = hop_documents(initial, trace)
    designer = ActivityExecutionAgent(fuzz_world.keypair(DESIGNER),
                                      fuzz_world.directory, backend)
    for amendment in amendments:
        documents.append(designer.amend(documents[-1], amendment))
    assert_histories_match(receipts(documents, False), fuzz_world, backend,
                           definition, resumptions)


def test_tfc_cer_before_its_intermediate(fuzz_world, backend, resumptions):
    """Verification accepts a TFC CER placed before the intermediate CER
    it countersigns; the histories must not depend on that order."""
    definition = chain_definition(4, POOL, designer=DESIGNER)
    initial, trace, tfc = _run(fuzz_world, backend, definition, "advanced")
    final = trace.final_document
    cers = [canonicalize(cer) for cer in final.results_section]
    kinds = [cer.get("Kind") for cer in final.results_section]
    assert kinds[2:4] == ["intermediate", "tfc"]
    data = final.to_bytes()
    closing = b"</ActivityExecutionResults></DRA4WfMSDocument>"
    head = data[:data.index(cers[0])]
    kept = head + b"".join(cers[:2]) + closing
    swapped = head + b"".join([*cers[:2], cers[3], cers[2]]) + closing
    assert_histories_match([kept, swapped], fuzz_world, backend, definition,
                           resumptions, tfc_identities={tfc.identity})
    assert resumptions == [True]
    report = verify_document(swapped, fuzz_world.directory, backend)
    assert report.history.pending_intermediate() == []
    assert "cerit-A1-0" not in cer_ids(report.history.frontier())
