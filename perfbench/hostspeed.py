"""Host-speed correction for timings taken on a shared host.

The 2-vCPU host this benchmark was tuned on shares its cores: for
stretches of 5 to 30 seconds the same code runs about 1.4 times slower
(an interpreter loop 1.43x, RSA 1.41x, XML parsing up to 1.9x), and a
30-second run spends anywhere from none to all of its time in such a
stretch.  Raw wall time therefore varies by up to 40% between runs of
unchanged code.

:class:`HostSpeed` runs a short fixed probe made only of the standard
library and the ``cryptography`` wheel -- parse, deep-copy, serialize and
hash an XML document, one RSA-1024 signature and two verifications, the
mix of a hop -- between measured intervals.  An interval measured between
two probes is scaled by ``(REFERENCE_PROBE_SECONDS / mean) **
SLOWDOWN_EXPONENT``, so reported times are host times at the tuning
host's usual speed.  The exponent is there because the program slows
less than the probe: in the slow stretches the probe takes 1.85 times
as long and a hop 1.45 times, and in milder ones 1.37 and about 1.25
times.  Measured on 63-instance ``chain-delta`` write phases in fast,
mild and slow periods, raw totals varied by 13% and corrected ones by
3%.  The probe uses none of ``src/repro``, so a change to the program
cannot move it, and it runs with the cyclic garbage collector off, so
the program's growing heap does not slow it.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import time
import xml.etree.ElementTree as ET

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa

__all__ = ["HostSpeed", "REFERENCE_PROBE_SECONDS", "SLOWDOWN_EXPONENT"]

#: The probe's time on the tuning host at its usual (fast) speed.
REFERENCE_PROBE_SECONDS = 0.00062
#: Program slowdown is about probe slowdown to this power.
SLOWDOWN_EXPONENT = 0.7

_DOCUMENT = ("<Doc>" + "".join(
    f'<Item Id="i{i}" Kind="k"><Value>payload {i} {"x" * 40}</Value></Item>'
    for i in range(150)) + "</Doc>").encode()


def _serialize(element: ET.Element, out: list[str]) -> None:
    out.append(f"<{element.tag}")
    for name in sorted(element.keys()):
        out.append(f' {name}="{element.get(name)}"')
    out.append(">")
    if element.text:
        out.append(element.text)
    for child in element:
        _serialize(child, out)
    out.append(f"</{element.tag}>")


class HostSpeed:
    """Probe the host between measured intervals and scale them."""

    #: Probe repetitions; the fastest one counts (filters interrupts).
    REPEATS = 5

    def __init__(self) -> None:
        self._key = rsa.generate_private_key(public_exponent=65537,
                                             key_size=1024)
        self._public = self._key.public_key()
        self.probe()  # first calls pay one-off initialisation
        self._last = self.probe()
        #: Every probe time, for the run's report.
        self.probes: list[float] = [self._last]

    def _once(self) -> float:
        start = time.perf_counter()
        root = copy.deepcopy(ET.fromstring(_DOCUMENT))
        out: list[str] = []
        _serialize(root, out)
        data = "".join(out).encode()
        message = hashlib.sha256(data).digest()
        signature = self._key.sign(message, padding.PKCS1v15(),
                                   hashes.SHA256())
        for _ in range(2):
            self._public.verify(signature, message, padding.PKCS1v15(),
                                hashes.SHA256())
        return time.perf_counter() - start

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return min(self._once() for _ in range(self.REPEATS))
        finally:
            if enabled:
                gc.enable()

    def begin(self) -> None:
        """Start a measured interval: collect garbage, then probe.

        Collecting first makes every interval start from the same
        collector state, so a full collection of a large heap lands in
        the interval only when the interval's own allocations trigger it.
        """
        gc.collect()
        self._last = self.probe()
        self.probes.append(self._last)

    def factor(self) -> float:
        """Probe now; scale factor for the interval since the last probe."""
        now = self.probe()
        self.probes.append(now)
        factor = (REFERENCE_PROBE_SECONDS / ((self._last + now) / 2)
                  ) ** SLOWDOWN_EXPONENT
        self._last = now
        return factor

    def scale(self, seconds: float) -> float:
        """*seconds* measured since the last probe, corrected."""
        return seconds * self.factor()
