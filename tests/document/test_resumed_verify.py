"""A resumed verification is a cold one, checking only what was appended.

A receiver holding a :class:`~repro.document.resume.KeptPasses` keeps
the last document of each instance that it verified in full, and bytes
that extend those bytes by a clean run of CERs resume that pass.
Whatever the bytes, the outcome must be the cold pass's over
``Dra4wfmsDocument.from_bytes(data)``: the same document, the same
report, or the same exception type and message.
"""

from __future__ import annotations

import itertools
import sys
import threading
from xml.etree import ElementTree as ET

import pytest

from repro.cloud import CloudSystem
from repro.cloud.system import drive_instance
from repro.core import InMemoryRuntime, TfcServer
from repro.core import aea as aea_module
from repro.core import tfc as tfc_module
from repro.crypto import KeyPair
from repro.crypto.fast import FastBackend
from repro.document import build_initial_document
from repro.document import verify as verify_module
from repro.document.document import (_HEADER_FEED, Dra4wfmsDocument,
                                     appended_bytes, process_id_of)
from repro.document.resume import KeptPasses, _appended_cers
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import (CanonicalizationError, DocumentFormatError,
                          ReproError, VerificationError)
from repro.fleet.workload import workload_from_spec
from repro.workloads import build_world
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS, figure9_responders
from repro.xmlsec.canonical import canonicalize
from repro.xmlsec.xmldsig import XmlSignature, sign_references

from ..workload_documents import WORKLOAD_SPECS, final_document
from .tamper_cases import TAMPER_CASES, flip_base64

TFC = "tfc@cloud.example"
CLOSING = b"</ActivityExecutionResults></DRA4WfMSDocument>"


def outcome(verify):
    """What *verify* gives: ``("ok", report)`` or the exception type and
    message (reports compare field for field, as ``==`` defines)."""
    try:
        report = verify()
    except ReproError as exc:
        return type(exc), str(exc)
    return "ok", report


def truncated(document: Dra4wfmsDocument, count: int) -> bytes:
    """*document*'s canonical bytes with only its first *count* results
    CERs (a version an earlier receipt saw)."""
    copy = document.clone()
    results = copy.results_section
    for cer in list(results)[count:]:
        results.remove(cer)
    return canonicalize(copy.root)


def extended(kept: bytes, suffix: bytes) -> bytes:
    """*kept* with *suffix* appended inside its results section."""
    return kept[:-len(CLOSING)] + suffix + CLOSING


@pytest.fixture()
def resumptions(monkeypatch):
    """Whether each pass resumed (its kept state still held)."""
    seen: list[bool] = []
    resumed = verify_module._resumed

    def spy(*args):
        state = resumed(*args)
        seen.append(state is not None)
        return state

    monkeypatch.setattr(verify_module, "_resumed", spy)
    return seen


# -- (a) every receipt of the two benchmark workloads ------------------------

#: Each workload on a cloud with a shared signature cache and on one
#: without: resuming does not depend on the cache.
CLOUDS = [pytest.param(spec, cache, id=spec if cache else f"{spec}-no-cache")
          for cache in (True, False) for spec in sorted(WORKLOAD_SPECS)]


@pytest.mark.parametrize("spec, cache", CLOUDS)
def test_cloud_receipts_equal_cold_passes(spec, cache, monkeypatch,
                                          resumptions):
    backend = FastBackend()
    workload = workload_from_spec(spec, loops=WORKLOAD_SPECS[spec])
    world = build_world([*workload.identities, TFC], bits=1024,
                        backend=backend)
    system = CloudSystem(world.directory, world.keypair(TFC),
                         backend=backend,
                         verify_cache=VerificationCache() if cache else None,
                         delta_routing=spec != "fig9")
    clients = [system.client(world.keypair(identity))
               for identity in workload.identities]
    # Receipts and resumed receipts, per receiver's store.
    received = {id(client.agent.kept_passes): [0, 0] for client in clients}
    received[id(system.tfc.kept_passes)] = [0, 0]
    cold_pass = verify_document

    def checked(data, directory, backend=None, **options):
        before = len(resumptions)
        report = cold_pass(data, directory, backend, **options)
        if isinstance(data, bytes):
            assert report.document.to_bytes() == data
            cold = cold_pass(Dra4wfmsDocument.from_bytes(data), directory,
                             backend, **dict(options, cache=None, kept=None))
            assert report == cold
            assert report.definition == cold.definition
            store = options["kept"]
            counts = received[id(store)]
            counts[0] += 1
            counts[1] += resumptions[before:] == [True]
            # Every document a receiver keeps still serializes to the
            # bytes it was kept for: nothing mutated a kept tree.
            kept = store.get(report.process_id)
            assert canonicalize(kept.document.root) == kept.data
        return report

    monkeypatch.setattr(tfc_module, "verify_document", checked)
    monkeypatch.setattr(aea_module, "verify_document", checked)
    designer = clients[workload.identities.index(workload.designer)]
    participants = [c for c in clients if c is not designer]
    instances = 2
    for index in range(instances):
        initial = build_initial_document(
            workload.definition, world.keypair(workload.designer),
            process_id=f"{index:032x}", backend=backend, created_at=0.0)
        pid = designer.upload_initial(initial)
        hops = drive_instance(participants, pid, workload.responders)

    tfc_store = system.tfc.kept_passes
    # The TFC resumes on every receipt after an instance's first ...
    assert received[id(tfc_store)] == [hops * instances,
                                       (hops - 1) * instances]
    assert len(tfc_store) == 0  # forgotten at termination
    # ... and each participant on every return to an instance.
    for client in participants:
        receipts, resumed = received[id(client.agent.kept_passes)]
        assert receipts > instances
        assert resumed == receipts - instances


# -- (b) the tamper registry, on appended CERs and on the kept prefix --------


@pytest.fixture(scope="module")
def prefixes(fig9a_trace, fig9b_run):
    """Per model: the pristine document and its canonical versions with
    0, 1, … results CERs."""
    out = {}
    for model, document in (("basic", fig9a_trace.final_document),
                            ("advanced", fig9b_run[0].final_document)):
        count = len(document.results_section)
        out[model] = (document,
                      [truncated(document, k) for k in range(count + 1)])
    return out


@pytest.mark.parametrize("case", TAMPER_CASES, ids=lambda c: c.name)
def test_registry_case_matches_cold(case, basic_doc, advanced_doc,
                                    tamper_donors, prefixes, world,
                                    backend, resumptions):
    document = basic_doc if case.model == "basic" else advanced_doc
    case.apply(document, tamper_donors[case.donor] if case.donor else None)
    try:
        data = canonicalize(document.root)
    except ReproError:
        data = ET.tostring(document.root)
    cold = outcome(lambda: verify_document(data, world.directory, backend))
    assert cold[0] != "ok"
    pristine, versions = prefixes[case.model]

    # On appended CERs: the longest pristine version the tampered bytes
    # extend is kept, and everything after it is appended.
    extending = [k for k, kept in enumerate(versions)
                 if appended_bytes(kept, data) is not None]
    if extending:
        kept = versions[extending[-1]]
        store = KeptPasses()
        verify_document(kept, world.directory, backend, kept=store)
        del resumptions[:]
        warm = outcome(lambda: verify_document(data, world.directory,
                                               backend, kept=store))
        assert warm == cold
        # A clean run of CERs resumes the kept pass unless it reuses an id.
        clean = _appended_cers(appended_bytes(kept, data)) is not None
        duplicate = "duplicate element id" in cold[1]
        assert resumptions == ([not duplicate] if clean else [])
        assert store.get(pristine.process_id).data == kept

    # On the kept prefix: the whole pristine document is kept.
    store = KeptPasses()
    verify_document(versions[-1], world.directory, backend, kept=store)
    del resumptions[:]
    warm = outcome(lambda: verify_document(data, world.directory, backend,
                                           kept=store))
    assert warm == cold
    assert True not in resumptions
    assert store.get(pristine.process_id).data == versions[-1]


def test_tampered_appended_cer_rejected_by_resumed_pass(
        prefixes, advanced_doc, world, backend, resumptions):
    """A CER tampered after the kept prefix is checked by a resumed pass,
    which rejects it as the cold pass does."""
    _, versions = prefixes["advanced"]
    cer = advanced_doc.results_section.findall("CER")[-1]
    flip_base64(cer.find("Signature/SignatureValue"))
    data = canonicalize(advanced_doc.root)
    store = KeptPasses()
    verify_document(versions[-2], world.directory, backend, kept=store)
    del resumptions[:]
    warm = outcome(lambda: verify_document(data, world.directory, backend,
                                           kept=store))
    assert resumptions == [True]
    assert warm == outcome(lambda: verify_document(data, world.directory,
                                                   backend))
    assert "signature of CER" in warm[1]


# -- (c) suffixes a resumed pass must not take as they are -------------------


@pytest.fixture(scope="module")
def chain():
    """The world, pristine document and CER bytes of ``chain:16:4``."""
    world, data = final_document("chain:16:4")
    document = Dra4wfmsDocument.from_bytes(data)
    cers = [canonicalize(cer) for cer in document.results_section]
    return world, document, cers


KEEP = 10  # results CERs in the kept version; CER 10 is an intermediate

SUFFIXES = ("text", "trailing-text", "non-cer-element", "closes-early",
            "malformed", "reuses-prefix-id", "reuses-signature-id",
            "references-later-cer", "honest")


def _suffixes(cers):
    signature_id = b'<Signature Id="sigit-A5-0">'
    assert signature_id in cers[KEEP]
    return {
        "text": b"junk" + cers[KEEP] + cers[KEEP + 1],
        "trailing-text": cers[KEEP] + b"junk",
        "non-cer-element": cers[KEEP] + b"<Note>x</Note>" + cers[KEEP + 1],
        "closes-early": (cers[KEEP] + b"</ActivityExecutionResults>"
                         b"<ActivityExecutionResults>" + cers[KEEP + 1]),
        "malformed": cers[KEEP] + cers[KEEP + 1][:-7],
        "reuses-prefix-id": cers[KEEP] + cers[3],
        "reuses-signature-id": cers[KEEP].replace(
            signature_id, b'<Signature Id="sig-def">'),
        # The TFC CER first: it countersigns the intermediate after it.
        "references-later-cer": cers[KEEP + 1] + cers[KEEP],
        "honest": cers[KEEP] + cers[KEEP + 1],
    }


@pytest.mark.parametrize("name", SUFFIXES)
def test_suffix_gives_cold_verdict(name, chain, resumptions):
    world, document, cers = chain
    kept = truncated(document, KEEP)
    data = extended(kept, _suffixes(cers)[name])
    cold = outcome(lambda: verify_document(data, world.directory))
    store = KeptPasses()
    verify_document(kept, world.directory, kept=store)
    del resumptions[:]
    warm = outcome(lambda: verify_document(data, world.directory,
                                           kept=store))
    assert set(_suffixes(cers)) == set(SUFFIXES)
    assert warm == cold
    if name in ("honest", "references-later-cer"):
        assert cold[0] == "ok" and resumptions == [True]
    elif name.startswith("reuses"):
        assert "duplicate element id" in cold[1] and resumptions == [False]
    else:
        assert cold[0] != "ok" and resumptions == []


def test_reference_to_the_results_section_gives_cold_verdict(
        chain, resumptions):
    """A kept index never maps an id to the results section, which a
    path copy replaces: a results section with an ``Id`` is rejected, so
    a CER appended later that signs it as the kept bytes held it gets
    the cold verdict (a digest mismatch against the section as it now
    stands)."""
    world, document, cers = chain
    kept = truncated(document, KEEP).replace(
        b"<ActivityExecutionResults>",
        b'<ActivityExecutionResults Id="results">', 1)
    prefix = Dra4wfmsDocument.from_bytes(kept)
    # The next CER, re-signed by its participant to cover the results
    # section of the kept bytes as well.
    cer = ET.fromstring(cers[KEEP])
    signature = XmlSignature(cer.find("Signature"))
    elements = {element.get("Id"): element for element in
                itertools.chain(prefix.root.iter(), cer.iter())}
    targets = [elements[ref_id] for ref_id in signature.referenced_ids]
    resigned = sign_references(
        signature.signature_id, signature.signer,
        world.keypair(signature.signer).private_key,
        targets + [prefix.results_section])
    cer.remove(signature.element)
    cer.append(resigned.element)
    data = extended(kept, canonicalize(cer))

    store = KeptPasses()
    first = outcome(lambda: verify_document(kept, world.directory,
                                            kept=store))
    assert first == (VerificationError, "ActivityExecutionResults carries "
                                        "unsigned attributes ['Id']")
    assert store.get(document.process_id) is None
    cold = outcome(lambda: verify_document(data, world.directory))
    assert cold[0] is verify_module.TamperDetected
    del resumptions[:]
    warm = outcome(lambda: verify_document(data, world.directory,
                                           kept=store))
    assert warm == cold and resumptions == []


# -- (d) a signer revoked or re-keyed between two receipts -------------------


@pytest.fixture()
def own_chain():
    """A chain run in a world of its own (its certificates get revoked)."""
    backend = FastBackend()
    workload = workload_from_spec("chain:6:2")
    world = build_world([*workload.identities, TFC], bits=1024,
                        backend=backend)
    clock = itertools.count(1)
    tfc = TfcServer(world.keypair(TFC), world.directory, backend=backend,
                    clock=lambda: float(next(clock)))
    initial = build_initial_document(workload.definition,
                                     world.keypair(workload.designer),
                                     backend=backend)
    trace = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                            backend=backend).run(
        initial, workload.definition, workload.responders, mode="advanced")
    return world, trace.final_document, workload


@pytest.mark.parametrize("change", ["revoked", "re-enrolled"])
def test_changed_signer_gives_cold_verdict(change, own_chain, resumptions):
    world, document, workload = own_chain
    kept, data = truncated(document, 4), truncated(document, 6)
    store = KeptPasses()
    verify_document(kept, world.directory, kept=store)
    signer = document.results_section.findall("CER")[0].get("Participant")
    certificate = world.directory.certificate_of(signer)
    authority = next(ca for ca in world.directory.authorities()
                     if ca.name == certificate.issuer)
    if change == "revoked":
        authority.revoke(certificate.serial)
    else:
        world.directory.enroll(KeyPair.generate(signer, bits=1024),
                               certificate.issuer)
    del resumptions[:]
    warm = outcome(lambda: verify_document(data, world.directory,
                                           kept=store))
    assert resumptions == [False]
    assert warm == outcome(lambda: verify_document(data, world.directory))
    assert warm[0] in (VerificationError, verify_module.TamperDetected)
    assert signer in warm[1] or "invalid" in warm[1]


# -- (e) other parameters never resume ----------------------------------------


@pytest.mark.parametrize("first, second", [
    ({}, {"definition_reader": "reader"}),
    ({"definition_reader": "reader"}, {"definition_reader": "other"}),
    ({}, {"tfc_identities": {TFC}}),
    ({"tfc_identities": {TFC}}, {}),
])
def test_other_parameters_never_resume(first, second, chain, resumptions):
    world, document, _ = chain
    identities = sorted(world.keypairs)
    readers = {"reader": identities[0], "other": identities[1]}

    def options(spec):
        spec = dict(spec)
        if "definition_reader" in spec:
            identity = readers[spec["definition_reader"]]
            spec["definition_reader"] = (
                identity, world.keypair(identity).private_key)
        return spec

    store = KeptPasses()
    verify_document(truncated(document, KEEP), world.directory, kept=store,
                    **options(first))
    data = truncated(document, KEEP + 2)
    report = verify_document(data, world.directory, kept=store,
                             **options(second))
    assert resumptions == []
    assert store.get(document.process_id).data == data
    assert report == verify_document(data, world.directory,
                                     **options(second))
    # The same parameters again resume from the document just kept.
    verify_document(truncated(document, KEEP + 4), world.directory,
                    kept=store, **options(second))
    assert resumptions == [True]


# -- (f) what is kept ---------------------------------------------------------


def test_failed_verification_keeps_nothing(chain, resumptions):
    world, document, cers = chain
    kept = truncated(document, KEEP)
    store = KeptPasses()
    verify_document(kept, world.directory, kept=store)
    tampered = cers[KEEP].replace(b'Participant="', b'Participant="x', 1)
    with pytest.raises(VerificationError):
        verify_document(extended(kept, tampered + cers[KEEP + 1]),
                        world.directory, kept=store)
    assert store.get(document.process_id).data == kept
    del resumptions[:]
    verify_document(extended(kept, cers[KEEP] + cers[KEEP + 1]),
                    world.directory, kept=store)
    assert resumptions == [True]


def test_kept_documents_stay_within_the_bound(world, fig9b, backend):
    store = KeptPasses()
    pids = [f"{index:032x}" for index in range(store.LIMIT + 2)]
    for pid in pids:
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         process_id=pid, backend=backend)
        verify_document(initial.to_bytes(), world.directory, backend,
                        kept=store)
        assert len(store) <= store.LIMIT
    assert len(store) == store.LIMIT
    assert [store.get(pid) is None for pid in pids] == (
        [True, True] + [False] * store.LIMIT)
    store.forget(pids[-1])
    assert store.get(pids[-1]) is None


def test_tfc_keeps_a_live_instance_only(world, fig9b, backend):
    system = CloudSystem(world.directory, world.keypair(TFC),
                         backend=backend, verify_cache=VerificationCache())
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    pid = system.client(world.keypair(DESIGNER)).upload_initial(initial)
    # The portal verifies the upload without keeping it.
    store = system.tfc.kept_passes
    assert store.get(pid) is None
    responders = figure9_responders(0)
    clients = {activity: system.client(world.keypair(identity))
               for activity, identity in PARTICIPANTS.items()}
    clients["A"].execute(pid, "A", responders["A"])
    assert store.get(pid) is not None
    drive_instance(list(clients.values()), pid, responders)
    assert store.get(pid) is None
    assert len(store) == 0


@pytest.mark.parametrize("mode", ["basic", "advanced"])
def test_in_memory_receipts_stay_cold(mode, world, fig9a, fig9b, backend,
                                      resumptions):
    """The in-memory runtime hands its agents and the TFC parsed
    documents, so every receipt is a full pass (Tables 1-2 measure cold
    verification) and nothing is kept."""
    definition = fig9a if mode == "basic" else fig9b
    tfc = None
    if mode == "advanced":
        tfc = TfcServer(world.keypair(TFC), world.directory, backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                              backend=backend)
    initial = build_initial_document(definition, world.keypair(DESIGNER),
                                     backend=backend)
    trace = runtime.run(initial, definition, figure9_responders(1),
                        mode=mode)
    assert len(trace.steps) == 10
    assert resumptions == []
    stores = [runtime.agent_for(identity).kept_passes
              for identity in world.keypairs]
    if tfc is not None:
        stores.append(tfc.kept_passes)
    assert [len(store) for store in stores] == [0] * len(stores)


def test_kept_passes_under_threads(chain):
    """Receivers on several threads share one store: every pass keeps
    its document once, and what is kept stays within the bound."""
    world, document, _ = chain
    versions = [truncated(document, count) for count in range(0, 33, 4)]
    store = KeptPasses()
    kept: list[bytes] = []
    keep = store.keep
    store.keep = lambda passed: (kept.append(passed.data), keep(passed))
    errors: list[Exception] = []

    def receiver():
        try:
            for data in versions:
                report = verify_document(data, world.directory, kept=store)
                assert report.document.to_bytes() == data
        except Exception as exc:  # reported below, with the thread's work
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=receiver) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(kept) == sorted(versions * 4)
    assert len(store) == 1
    assert store.get(document.process_id).data in versions


# -- the header read the portal and the lookup rely on -----------------------


def test_process_id_of_reads_the_full_parse(chain):
    _, document, _ = chain
    data = document.to_bytes()
    assert process_id_of(data) == document.process_id
    with pytest.raises(DocumentFormatError, match="header has no ProcessId"):
        process_id_of(data.replace(b"ProcessId", b"ProcessJd", 1))
    with pytest.raises(DocumentFormatError, match="expected <DRA4WfMSDocument>"):
        process_id_of(b"<Other>" + data + b"</Other>")
    with pytest.raises(DocumentFormatError, match="document has no Header"):
        process_id_of(b'<DRA4WfMSDocument Version="1.0"></DRA4WfMSDocument>')
    with pytest.raises(CanonicalizationError, match="malformed XML"):
        process_id_of(b"<DRA4WfMSDocument><Header")


def test_process_id_of_reads_a_header_over_several_feeds(chain):
    """A header longer than one parser feed is still read whole."""
    _, document, _ = chain
    data = document.to_bytes()
    name = f'ProcessName="{document.process_name}"'.encode()
    long_name = b'ProcessName="' + b"n" * (4 * _HEADER_FEED) + b'"'
    long = data.replace(name, long_name, 1)
    assert long.index(b"<Header") < _HEADER_FEED
    assert long.index(b">", long.index(b"<Header")) > 4 * _HEADER_FEED
    assert process_id_of(long) == document.process_id
    assert Dra4wfmsDocument.from_bytes(long).process_id == \
        document.process_id


def test_process_id_of_raises_for_a_malformed_byte_before_the_header(
        chain):
    """A malformed byte before the header's end raises what the full
    parse raises, in the first feed or a later one."""
    _, document, _ = chain
    data = document.to_bytes()
    name = f'ProcessName="{document.process_name}"'.encode()
    long = data.replace(
        name, b'ProcessName="' + b"n" * (4 * _HEADER_FEED) + b'"', 1)
    early = data.index(b"<Header") + len(b"<Header")
    late = long.index(b'ProcessName="') + 2 * _HEADER_FEED
    assert early < _HEADER_FEED < late
    for source, at in ((data, early), (long, late)):
        broken = source[:at] + b"<" + source[at + 1:]
        with pytest.raises(CanonicalizationError, match="malformed XML"):
            process_id_of(broken)
        with pytest.raises(CanonicalizationError, match="malformed XML"):
            Dra4wfmsDocument.from_bytes(broken)
