"""Portal placement: pinning, counting, skew, system integration."""

from __future__ import annotations

import pytest

from repro.cloud.sharding import DEFAULT_VNODES, PortalPlacement
from repro.cloud.system import CloudSystem
from repro.errors import CloudError
from repro.workloads.participants import build_world


@pytest.fixture(scope="module")
def world():
    # One RSA world for the whole module: keygen dominates test time.
    return build_world(["a@x", "tfc@x"], bits=1024)


def make_system(world, **kwargs):
    return CloudSystem(world.directory, world.keypair("tfc@x"),
                       backend=world.backend, **kwargs)


class TestPortalPlacement:
    def test_pin_is_stable(self):
        placement = PortalPlacement(["portal0", "portal1"])
        pid = "fleet0-000042"
        first = placement.portal_for(pid)
        for _ in range(5):
            assert placement.portal_for(pid) == first

    def test_counts_first_sightings_only(self):
        placement = PortalPlacement(["portal0", "portal1"])
        for _ in range(3):
            placement.portal_for("fleet0-000001")
        assert sum(placement.placed.values()) == 1

    def test_skew_over_population(self):
        placement = PortalPlacement([f"portal{i}" for i in range(4)])
        for i in range(10_000):
            placement.portal_for(f"fleet7-{i:06d}")
        assert placement.skew <= 1.25

    def test_to_dict_shape(self):
        placement = PortalPlacement(["portal1", "portal0"])
        placement.portal_for("x")
        snapshot = placement.to_dict()
        assert snapshot["scheme"] == "ring"
        assert snapshot["vnodes"] == DEFAULT_VNODES
        assert list(snapshot["portals"]) == ["portal0", "portal1"]
        assert sum(snapshot["portals"].values()) == 1


class TestSystemValidation:
    """CloudSystem rejects malformed portal/placement configuration."""

    def test_bool_portals_rejected(self, world):
        # bool is an int subclass; CloudSystem(portals=True) silently
        # meaning "one portal" would mask a caller bug.
        with pytest.raises(CloudError, match="integer"):
            make_system(world, portals=True)

    def test_non_integer_portals_rejected(self, world):
        with pytest.raises(CloudError, match="integer"):
            make_system(world, portals="2")
        with pytest.raises(CloudError, match="integer"):
            make_system(world, portals=2.0)

    def test_zero_portals_rejected(self, world):
        with pytest.raises(CloudError, match="at least one"):
            make_system(world, portals=0)

    def test_unknown_placement_rejected(self, world):
        with pytest.raises(CloudError, match="placement"):
            make_system(world, placement="random")

    def test_replicas_require_delta(self, world):
        with pytest.raises(CloudError, match="delta"):
            make_system(world, chunk_replicas=2)


class TestSystemRouting:
    def test_round_robin_has_no_ring(self, world):
        system = make_system(world, portals=2)
        assert system.placement is None
        assert system.portal_for("anything") is system.portals[0]

    def test_ring_pins_by_process_id(self, world):
        system = make_system(world, portals=3, placement="ring")
        assert system.placement is not None
        seen = {system.portal_for(f"p-{i}").portal_id
                for i in range(60)}
        assert len(seen) > 1  # multiple portals actually serve
        pinned = system.portal_for("p-7")
        assert all(system.portal_for("p-7") is pinned
                   for _ in range(3))

    def test_ring_client_sessions_cover_all_portals(self, world):
        system = make_system(world, portals=3, placement="ring")
        client = system.client(world.keypair("a@x"))
        assert len(client._sessions) == 3
