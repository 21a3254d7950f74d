"""The tamper-matrix case registry, shared by several suites.

Each :class:`TamperCase` is one adversarial mutation of a fully
executed document: sections × mutation kinds, exactly the sweep
``test_tamper_matrix.py`` runs against the verification cache.  The
cases live here — not inline in that module — so the verification-memo
and resumed-verification suites (``test_verify_memo.py``,
``test_resumed_verify.py``) can replay the *same* attacks and assert
the same verdict, with the same failing-signature attribution, as a
cold pass.

Besides those attacks, the registry holds malformed structure — a
signature, reference or CER missing a required part, undecodable
base64, a non-integer iteration, an element name canonicalization
rejects — at the definition CER, a middle CER and the last CER of the
Fig. 9B document.  Lower layers report these with their own
:class:`~repro.errors.ReproError` subclasses; verification must still
reject them as a :class:`~repro.errors.VerificationError`.

Last, it holds content no signature covers, which every signature
still verifies around: an attribute or a child of the document root, a
second results section, text or a stray element among the CERs, a
child or text of a CER, a child or an attribute of the definition
section, an attribute of the results section, and a child or an
attribute inside the last CER's signature (the same inside a middle
CER's signature is covered by its successor's, a digest mismatch).

A case's ``apply(document, donor)`` mutates *document* in place;
``donor`` names which pristine sibling document the mutation grafts
from (``None`` for self-contained mutations):

=================  ======================================================
donor key          fixture it resolves to
=================  ======================================================
sibling_basic      independent Fig. 9A run (replay source, basic model)
sibling_advanced   independent Fig. 9B run, offset TFC clock
fig9b_doc          the pristine Fig. 9B document (cross-workflow graft)
=================  ======================================================
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable
from xml.etree import ElementTree as ET

__all__ = [
    "BASIC_CER_COUNT",
    "TFC_CER_COUNT",
    "TamperCase",
    "TAMPER_CASES",
    "flip_base64",
    "tfc_cers",
]

# Standard CERs in the Fig. 9A basic-model document (two loop passes).
BASIC_CER_COUNT = 10
# TFC CERs in the Fig. 9B advanced-model document.
TFC_CER_COUNT = 10


@dataclass(frozen=True)
class TamperCase:
    """One adversarial mutation: which document, what to do to it."""

    name: str
    #: ``"basic"`` (Fig. 9A document) or ``"advanced"`` (Fig. 9B).
    model: str
    #: Donor-document key (see module docstring) or ``None``.
    donor: str | None
    apply: Callable[[object, object | None], None]


def flip_base64(node: ET.Element) -> None:
    """Corrupt a base64 text payload while keeping it well-formed."""
    text = node.text or ""
    node.text = ("QUJD" if not text.startswith("QUJD") else "REVG") + text[4:]


def tfc_cers(document) -> list[ET.Element]:
    """The TFC CER elements of an advanced-model document, in order."""
    return [cer for cer in document.results_section.findall("CER")
            if cer.get("Kind") == "tfc"]


# -- execution results -------------------------------------------------------


def _result_flip(index: int):
    def apply(document, donor) -> None:
        cer = document.results_section.findall("CER")[index]
        flip_base64(cer.find("ExecutionResult/EncryptedData/CipherData/"
                             "CipherValue"))
    return apply


def _result_swap(index: int):
    # Exchange the result *contents* of two CERs (Ids stay put, so only
    # the digests can catch it).
    def apply(document, donor) -> None:
        cers = document.results_section.findall("CER")
        result_a = cers[index].find("ExecutionResult")
        result_b = cers[(index + 1) % BASIC_CER_COUNT].find("ExecutionResult")
        a_children, b_children = list(result_a), list(result_b)
        for child in a_children:
            result_a.remove(child)
        for child in b_children:
            result_b.remove(child)
            result_a.append(child)
        for child in a_children:
            result_b.append(child)
    return apply


def _result_replay(index: int):
    # Substitute the same activity's result from the sibling run —
    # valid ciphertext, validly signed, wrong document.
    def apply(document, donor) -> None:
        cer = document.results_section.findall("CER")[index]
        donor_cer = donor.results_section.findall("CER")[index]
        own = cer.find("ExecutionResult")
        grafted = copy.deepcopy(donor_cer.find("ExecutionResult"))
        cer.remove(own)
        cer.insert(list(cer).index(cer.find("Signature")), grafted)
    return apply


# -- signatures --------------------------------------------------------------


def _signature_flip(index: int):
    def apply(document, donor) -> None:
        cer = document.results_section.findall("CER")[index]
        flip_base64(cer.find("Signature/SignatureValue"))
    return apply


def _signature_swap(index: int):
    # Exchange whole signatures between two CERs of the document.
    def apply(document, donor) -> None:
        cers = document.results_section.findall("CER")
        cer_a = cers[index]
        cer_b = cers[(index + 3) % BASIC_CER_COUNT]
        sig_a, sig_b = cer_a.find("Signature"), cer_b.find("Signature")
        pos_a, pos_b = list(cer_a).index(sig_a), list(cer_b).index(sig_b)
        cer_a.remove(sig_a)
        cer_b.remove(sig_b)
        cer_a.insert(pos_a, sig_b)
        cer_b.insert(pos_b, sig_a)
    return apply


def _signature_replay(index: int):
    # Graft the *same position's* signature from the sibling run: same
    # signer, same signature id, honestly produced — but over the
    # sibling's ciphertext, so every digest must mismatch here.
    def apply(document, donor) -> None:
        cer = document.results_section.findall("CER")[index]
        donor_cer = donor.results_section.findall("CER")[index]
        own = cer.find("Signature")
        pos = list(cer).index(own)
        cer.remove(own)
        cer.insert(pos, copy.deepcopy(donor_cer.find("Signature")))
    return apply


# -- header ------------------------------------------------------------------


def _header_flip(document, donor) -> None:
    document.header.set("ProcessId", "forged-instance-id")


def _header_swap(document, donor) -> None:
    header = document.header
    pid, name = header.get("ProcessId"), header.get("ProcessName")
    header.set("ProcessId", name)
    header.set("ProcessName", pid)


def _header_replay(document, donor) -> None:
    # Replace the whole header with the sibling instance's (validly
    # designer-signed there): instance-substitution attack.
    own = document.header
    root = document.root
    pos = list(root).index(own)
    root.remove(own)
    root.insert(pos, copy.deepcopy(donor.header))


# -- embedded workflow definition --------------------------------------------


def _definition_flip(document, donor) -> None:
    for node in document.root.iter("Activity"):
        if node.get("ActivityId") == "D":
            node.set("Participant", "mallory@evil.example")


def _definition_swap(document, donor) -> None:
    # Exchange the designated participants of two activities: both
    # identities stay legitimate, only the assignment changes.
    activities = [node for node in document.root.iter("Activity")
                  if node.get("ActivityId") in ("B1", "D")]
    assert len(activities) == 2
    first, second = activities
    p1, p2 = first.get("Participant"), second.get("Participant")
    first.set("Participant", p2)
    second.set("Participant", p1)


def _definition_replay(document, donor) -> None:
    # Swap in another workflow's definition section wholesale (the
    # Fig. 9B definition, validly signed in its own documents).
    def_cer = document.root.find("ApplicationDefinition/CER")
    own = def_cer.find("WorkflowDefinitionSection")
    foreign = donor.root.find(".//WorkflowDefinitionSection")
    pos = list(def_cer).index(own)
    def_cer.remove(own)
    def_cer.insert(pos, copy.deepcopy(foreign))


# -- TFC timestamps (advanced model) -----------------------------------------


def _timestamp_flip(index: int):
    def apply(document, donor) -> None:
        cer = tfc_cers(document)[index]
        cer.find("Timestamp").set("Time", "0.0")
    return apply


def _timestamp_swap(index: int):
    # Exchange witnessed times between two TFC CERs (reordering history
    # while every timestamp value stays plausible).
    def apply(document, donor) -> None:
        cers = tfc_cers(document)
        ts_a = cers[index].find("Timestamp")
        ts_b = cers[(index + 1) % TFC_CER_COUNT].find("Timestamp")
        time_a, time_b = ts_a.get("Time"), ts_b.get("Time")
        ts_a.set("Time", time_b)
        ts_b.set("Time", time_a)
    return apply


def _timestamp_replay(index: int):
    # Graft the corresponding timestamp from the offset-clock sibling
    # run — TFC-signed there, so a loosely keyed cache might remember
    # it as "good".
    def apply(document, donor) -> None:
        cer = tfc_cers(document)[index]
        donor_cer = tfc_cers(donor)[index]
        own = cer.find("Timestamp")
        pos = list(cer).index(own)
        cer.remove(own)
        cer.insert(pos, copy.deepcopy(donor_cer.find("Timestamp")))
    return apply


# -- malformed structure (advanced model) ------------------------------------


def _structure_cer(document, position: str) -> ET.Element:
    if position == "def":
        return document.definition_cer.element
    cers = document.results_section.findall("CER")
    return cers[len(cers) // 2] if position == "mid" else cers[-1]


def _first_reference(cer: ET.Element) -> ET.Element:
    return cer.find("Signature/SignedInfo/Reference")


def _digest_not_base64(document, cer) -> None:
    _first_reference(cer).find("DigestValue").text = "not*base64"


def _reference_without_uri(document, cer) -> None:
    _first_reference(cer).attrib.pop("URI")


def _uri_without_hash(document, cer) -> None:
    reference = _first_reference(cer)
    reference.set("URI", reference.get("URI").lstrip("#"))


def _signature_without_signed_info(document, cer) -> None:
    signature = cer.find("Signature")
    signature.remove(signature.find("SignedInfo"))


def _signature_without_key_name(document, cer) -> None:
    key_info = cer.find("Signature/KeyInfo")
    key_info.remove(key_info.find("KeyName"))


def _cer_without_signature(document, cer) -> None:
    cer.remove(cer.find("Signature"))


def _non_integer_iteration(document, cer) -> None:
    cer.set("Iteration", "first")


def _non_ascii_signed_element(document, cer) -> None:
    # Inside the first element the CER's signature covers.
    target_id = _first_reference(cer).get("URI")[1:]
    target = next(node for node in document.root.iter()
                  if node.get("Id") == target_id)
    ET.SubElement(target, "Résumé")


_STRUCTURE_FAULTS = {
    "digest-not-base64": _digest_not_base64,
    "reference-without-uri": _reference_without_uri,
    "uri-without-hash": _uri_without_hash,
    "signature-without-signedinfo": _signature_without_signed_info,
    "signature-without-keyname": _signature_without_key_name,
    "cer-without-signature": _cer_without_signature,
    "non-integer-iteration": _non_integer_iteration,
    "non-ascii-signed-element": _non_ascii_signed_element,
}


def _structure_fault(fault, position: str):
    def apply(document, donor) -> None:
        fault(document, _structure_cer(document, position))
    return apply


# -- content no signature covers (advanced model) ----------------------------

#: What an attacker slips past every signature.
_NOTE = "pay mallory"


def _note() -> ET.Element:
    note = ET.Element("Note")
    note.text = _NOTE
    return note


def _unsigned_root_attribute(document, donor) -> None:
    document.root.set("Note", _NOTE)


def _unsigned_root_child(document, donor) -> None:
    document.root.append(_note())


def _unsigned_second_results(document, donor) -> None:
    ET.SubElement(document.root, "ActivityExecutionResults").append(_note())


def _unsigned_appdef_child(document, donor) -> None:
    document.root.find("ApplicationDefinition").append(_note())


def _unsigned_appdef_attribute(document, donor) -> None:
    document.root.find("ApplicationDefinition").set("Note", _NOTE)


def _unsigned_results_attribute(document, donor) -> None:
    # An Id would put the section in the id index (see
    # test_resumed_verify.py, a reference to the results section).
    document.results_section.set("Id", "results")


def _results_cer(document, position: str) -> ET.Element:
    cers = document.results_section.findall("CER")
    return cers[len(cers) // 2] if position == "mid" else cers[-1]


def _unsigned_results_text(position: str):
    def apply(document, donor) -> None:
        _results_cer(document, position).tail = _NOTE
    return apply


def _unsigned_results_element(position: str):
    def apply(document, donor) -> None:
        results = document.results_section
        cer = _results_cer(document, position)
        results.insert(list(results).index(cer) + 1, _note())
    return apply


def _unsigned_cer_child(position: str):
    def apply(document, donor) -> None:
        _structure_cer(document, position).append(_note())
    return apply


def _unsigned_cer_text(position: str):
    def apply(document, donor) -> None:
        _structure_cer(document, position).text = _NOTE
    return apply


def _unsigned_in_signature(part: str, attribute: bool, position: str):
    """A Note as a child, or an attribute, of *part* of the signature
    of the CER at *position* (no signature covers either)."""
    def apply(document, donor) -> None:
        element = _structure_cer(document, position).find(part)
        if attribute:
            element.set("Note", _NOTE)
        else:
            element.append(_note())
    return apply


# -- the registry ------------------------------------------------------------


def _build_cases() -> list[TamperCase]:
    cases: list[TamperCase] = []
    for index in range(BASIC_CER_COUNT):
        cases.append(TamperCase(f"result-flip-{index}", "basic", None,
                                _result_flip(index)))
        cases.append(TamperCase(f"result-swap-{index}", "basic", None,
                                _result_swap(index)))
        cases.append(TamperCase(f"result-replay-{index}", "basic",
                                "sibling_basic", _result_replay(index)))
        cases.append(TamperCase(f"signature-flip-{index}", "basic", None,
                                _signature_flip(index)))
        cases.append(TamperCase(f"signature-swap-{index}", "basic", None,
                                _signature_swap(index)))
        cases.append(TamperCase(f"signature-replay-{index}", "basic",
                                "sibling_basic", _signature_replay(index)))
    cases.append(TamperCase("header-flip", "basic", None, _header_flip))
    cases.append(TamperCase("header-swap", "basic", None, _header_swap))
    cases.append(TamperCase("header-replay", "basic", "sibling_basic",
                            _header_replay))
    cases.append(TamperCase("definition-flip", "basic", None,
                            _definition_flip))
    cases.append(TamperCase("definition-swap", "basic", None,
                            _definition_swap))
    cases.append(TamperCase("definition-replay", "basic", "fig9b_doc",
                            _definition_replay))
    for index in range(TFC_CER_COUNT):
        cases.append(TamperCase(f"timestamp-flip-{index}", "advanced", None,
                                _timestamp_flip(index)))
        cases.append(TamperCase(f"timestamp-swap-{index}", "advanced", None,
                                _timestamp_swap(index)))
        cases.append(TamperCase(f"timestamp-replay-{index}", "advanced",
                                "sibling_advanced",
                                _timestamp_replay(index)))
    for fault_name, fault in _STRUCTURE_FAULTS.items():
        for position in ("def", "mid", "last"):
            cases.append(TamperCase(f"structure-{fault_name}-{position}",
                                    "advanced", None,
                                    _structure_fault(fault, position)))
    for name, apply in (("root-attribute", _unsigned_root_attribute),
                        ("root-child", _unsigned_root_child),
                        ("second-results", _unsigned_second_results),
                        ("appdef-child", _unsigned_appdef_child),
                        ("appdef-attribute", _unsigned_appdef_attribute),
                        ("results-attribute", _unsigned_results_attribute)):
        cases.append(TamperCase(f"unsigned-{name}", "advanced", None, apply))
    for position in ("mid", "last"):
        cases.append(TamperCase(f"unsigned-results-text-{position}",
                                "advanced", None,
                                _unsigned_results_text(position)))
        cases.append(TamperCase(f"unsigned-results-element-{position}",
                                "advanced", None,
                                _unsigned_results_element(position)))
    for position in ("def", "mid", "last"):
        cases.append(TamperCase(f"unsigned-cer-child-{position}",
                                "advanced", None,
                                _unsigned_cer_child(position)))
        cases.append(TamperCase(f"unsigned-cer-text-{position}",
                                "advanced", None,
                                _unsigned_cer_text(position)))
    # Inside a signature: uncovered at the last CER, covered (and so a
    # digest mismatch) wherever a successor countersigns it.
    for name, part, attribute in (
            ("signature-child", "Signature", False),
            ("signature-attribute", "Signature", True),
            ("keyinfo-child", "Signature/KeyInfo", False),
            ("keyname-attribute", "Signature/KeyInfo/KeyName", True)):
        for position in ("mid", "last"):
            cases.append(TamperCase(
                f"unsigned-{name}-{position}", "advanced", None,
                _unsigned_in_signature(part, attribute, position)))
    return cases


#: The full adversarial sweep: 144 mutations over two document models.
TAMPER_CASES: list[TamperCase] = _build_cases()
