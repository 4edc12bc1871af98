"""Tests for the device container and the remaining component models."""

import dataclasses

from repro.model import (
    BgpNeighbor,
    BgpProcess,
    ConnectedRoute,
    DEFAULT_ADMIN_DISTANCES,
    DeviceConfig,
    Interface,
    OspfInterfaceSettings,
    OspfProcess,
    Prefix,
    Redistribution,
    SourceSpan,
    StaticRoute,
    ip_to_int,
)
from repro.workloads.datacenter import parameterized_clos_fleet
from repro.workloads.figure1 import figure1_devices


class TestInterface:
    def test_connected_route_masks_host_bits(self):
        interface = Interface(name="e0", address=Prefix.parse("10.0.0.0/24"))
        route = interface.connected_route()
        assert route == ConnectedRoute(Prefix.parse("10.0.0.0/24"), "e0")

    def test_shutdown_contributes_nothing(self):
        interface = Interface(
            name="e0", address=Prefix.parse("10.0.0.0/24"), shutdown=True
        )
        assert interface.connected_route() is None

    def test_unaddressed_contributes_nothing(self):
        assert Interface(name="e0").connected_route() is None
        assert Interface(name="e0").subnet() is None


class TestStaticRoute:
    def test_attributes_tuple(self):
        route = StaticRoute(
            prefix=Prefix.parse("10.0.0.0/24"), next_hop=1, admin_distance=5, tag=9
        )
        assert route.attributes() == (Prefix.parse("10.0.0.0/24"), 1, None, 5, 9)

    def test_source_not_compared(self):
        first = StaticRoute(
            prefix=Prefix.parse("10.0.0.0/24"),
            next_hop=1,
            source=SourceSpan("a", 1, 1, ("x",)),
        )
        second = StaticRoute(
            prefix=Prefix.parse("10.0.0.0/24"),
            next_hop=1,
            source=SourceSpan("b", 2, 2, ("y",)),
        )
        assert first == second

    def test_describe(self):
        route = StaticRoute(
            prefix=Prefix.parse("10.0.0.0/24"), next_hop=ip_to_int("1.2.3.4"), tag=7
        )
        text = route.describe()
        assert "10.0.0.0/24" in text and "1.2.3.4" in text and "tag 7" in text


class TestBgpModel:
    def test_neighbor_map(self):
        process = BgpProcess(
            asn=1,
            neighbors=(
                BgpNeighbor(peer_ip=10, remote_as=2),
                BgpNeighbor(peer_ip=20, remote_as=3),
            ),
        )
        assert set(process.neighbor_map()) == {10, 20}

    def test_neighbor_attributes_hide_policy_names(self):
        neighbor = BgpNeighbor(peer_ip=1, remote_as=2, import_policy="ANY-NAME")
        attributes = neighbor.attributes()
        assert attributes["has-import-policy"] is True
        assert "ANY-NAME" not in str(attributes.values())

    def test_redistribution_key(self):
        redistribution = Redistribution(from_protocol="static", route_map="RM")
        assert redistribution.key() == "static"
        assert redistribution.attributes()["has-route-map"] is True


class TestOspfModel:
    def test_interface_map(self):
        process = OspfProcess(
            interfaces=(
                OspfInterfaceSettings(interface="e0", area=0, cost=10),
                OspfInterfaceSettings(interface="e1", area=1),
            )
        )
        assert process.interface_map()["e0"].cost == 10

    def test_attributes(self):
        settings = OspfInterfaceSettings(interface="e0", area=2, cost=5, passive=True)
        attributes = settings.attributes()
        assert attributes["area"] == 2
        assert attributes["cost"] == 5
        assert attributes["passive"] is True


class TestDeviceConfig:
    def test_connected_routes_sorted_and_filtered(self):
        device = DeviceConfig(hostname="r1")
        device.interfaces["b"] = Interface("b", address=Prefix.parse("10.2.0.0/24"))
        device.interfaces["a"] = Interface("a", address=Prefix.parse("10.1.0.0/24"))
        device.interfaces["down"] = Interface(
            "down", address=Prefix.parse("10.3.0.0/24"), shutdown=True
        )
        routes = device.connected_routes()
        assert [str(r.prefix) for r in routes] == ["10.1.0.0/24", "10.2.0.0/24"]

    def test_default_admin_distances_copied(self):
        device1 = DeviceConfig(hostname="r1")
        device2 = DeviceConfig(hostname="r2")
        device1.admin_distances["static"] = 77
        assert device2.admin_distances["static"] == DEFAULT_ADMIN_DISTANCES["static"]

    def test_span_for_clips_to_file(self):
        device = DeviceConfig(hostname="r1", raw_lines=("a", "b", "c"))
        span = device.span_for(2, 5)
        assert span.text == ("b", "c")
        assert device.line_count() == 3


def _reflective_walk(value):
    """Reference span walk: reflects on every node, no per-class cache."""
    if isinstance(value, SourceSpan):
        if not value.is_empty():
            yield value
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _reflective_walk(getattr(value, field.name))
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from _reflective_walk(item)
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _reflective_walk(item)


class TestComponentSpans:
    def test_matches_reflective_walk_in_order(self):
        clos, _ = parameterized_clos_fleet(count=3, roles=2, rule_count=6)
        for device in (*figure1_devices(), *clos):
            spans = device.component_spans
            assert set(spans) == {("acl", name) for name in device.acls} | {
                ("route-map", name) for name in device.route_maps
            }
            for kind, policies in (
                ("acl", device.acls),
                ("route-map", device.route_maps),
            ):
                for name, policy in policies.items():
                    expected = tuple(_reflective_walk(policy))
                    assert expected
                    assert spans[(kind, name)] == expected

    def test_computed_once(self):
        device = figure1_devices()[0]
        assert device.component_spans is device.component_spans
