"""Synthetic data-center network for the §5.1 evaluation (Table 6).

The paper's network A is a Clos data center with hundreds of routers
from two vendors, evaluated on three tasks.  The production configs are
proprietary, so this module generates a faithful synthetic stand-in: a
parameterizable Clos fabric of Cisco/Juniper pairs whose configurations
exercise eBGP + iBGP, OSPF, static routes, ACLs, and route
redistribution — with the *same bug classes* the paper reports seeded at
known locations:

* **Scenario 1** (redundant ToR pairs): five missing BGP policy
  fragments (prefix-list entries absent from one router of a pair) and
  two static routes with wrong next hops,
* **Scenario 2** (router replacements): one wrong community number and
  three wrong local preferences, one of them on an iBGP route-reflector
  device,
* **Scenario 3** (gateway ACLs): three ACL differences, one shaped like
  Table 7 (a Cisco deny of a source range that a Juniper whitelist term
  accepts).

Each scenario yields parsed device pairs plus ground-truth bug metadata,
so tests and the Table 6 benchmark can check that Campion detects every
seeded bug and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..model.device import DeviceConfig
from ..parsers import parse_cisco, parse_juniper

__all__ = [
    "RouterPair",
    "Scenario",
    "scenario1_redundant_pairs",
    "scenario2_router_replacement",
    "scenario3_gateway_acls",
    "gateway_fleet",
    "templated_clos_fleet",
    "parameterized_clos_fleet",
    "full_table6_workload",
]


@dataclass
class RouterPair:
    """Two configurations intended to be behaviorally equivalent."""

    name: str
    primary: DeviceConfig
    backup: DeviceConfig
    seeded_bugs: List[str] = field(default_factory=list)


@dataclass
class Scenario:
    """One evaluation scenario: pairs plus the Table 6 expectation."""

    name: str
    component: str
    check: str  # "Semantic" or "Structural"
    pairs: List[RouterPair] = field(default_factory=list)
    expected_differences: Dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Config templates
# ---------------------------------------------------------------------------


def _rack_prefixes(pair_index: int, count: int = 4) -> List[str]:
    return [f"10.{pair_index + 1}.{i}.0/24" for i in range(count)]


def _cisco_tor(
    pair_index: int,
    spine_count: int,
    drop_prefix_index: Optional[int] = None,
    static_next_hop_octet: int = 1,
) -> str:
    """A Cisco ToR config.  ``drop_prefix_index`` omits one EXPORT prefix
    (the Scenario 1 "missing fragment of BGP policy" bug when applied to
    only one router of the pair)."""
    prefixes = _rack_prefixes(pair_index)
    lines = [f"hostname tor{pair_index}-cisco", "!"]
    lines.append(f"interface Loopback0")
    lines.append(f" ip address 10.255.{pair_index + 1}.1 255.255.255.255")
    lines.append("!")
    for spine in range(spine_count):
        lines.append(f"interface Ethernet{spine + 1}")
        lines.append(
            f" ip address 10.200.{pair_index + 1}.{4 * spine + 1} 255.255.255.252"
        )
        lines.append("!")
    for index, prefix in enumerate(prefixes):
        if index == drop_prefix_index:
            continue
        lines.append(f"ip prefix-list EXPORT permit {prefix}")
    lines.append("ip prefix-list EXPORT permit 10.255.0.0/16 le 32")
    lines.append("!")
    lines.append(f"ip prefix-list IMPORT permit 10.{pair_index + 1}.0.0/16 le 32")
    lines.append("!")
    lines.append("route-map SPINE-OUT permit 10")
    lines.append(" match ip address prefix-list EXPORT")
    lines.append(" set community 65000:100")
    lines.append("route-map SPINE-IN deny 5")
    lines.append(f" match ip address prefix-list IMPORT")
    lines.append("route-map SPINE-IN permit 10")
    lines.append(" set local-preference 120")
    lines.append("!")
    lines.append(
        f"ip route 10.250.{pair_index + 1}.0 255.255.255.0 10.200.{pair_index + 1}.{static_next_hop_octet}"
    )
    lines.append(f"ip route 10.251.{pair_index + 1}.0 255.255.255.0 Null0")
    lines.append("!")
    lines.append(f"router bgp 65{pair_index:03d}")
    for spine in range(spine_count):
        peer = f"10.200.{pair_index + 1}.{4 * spine + 2}"
        lines.append(f" neighbor {peer} remote-as 64{spine:03d}")
        lines.append(f" neighbor {peer} route-map SPINE-OUT out")
        lines.append(f" neighbor {peer} route-map SPINE-IN in")
        lines.append(f" neighbor {peer} send-community")
    lines.append("!")
    lines.append("router ospf 1")
    lines.append(f" router-id 10.255.{pair_index + 1}.1")
    lines.append(f" network 10.200.{pair_index + 1}.0 0.0.0.255 area 0")
    lines.append("!")
    return "\n".join(lines) + "\n"


def _juniper_tor(
    pair_index: int,
    spine_count: int,
    drop_prefix_index: Optional[int] = None,
    static_next_hop_octet: int = 1,
    local_pref: int = 120,
    export_community: str = "65000:100",
) -> str:
    """The Juniper twin of :func:`_cisco_tor`, with injectable deviations."""
    prefixes = _rack_prefixes(pair_index)
    export_entries = [
        f"        {prefix};"
        for index, prefix in enumerate(prefixes)
        if index != drop_prefix_index
    ]
    neighbor_blocks = []
    for spine in range(spine_count):
        peer = f"10.200.{pair_index + 1}.{4 * spine + 2}"
        neighbor_blocks.append(
            f"""            neighbor {peer} {{
                peer-as 64{spine:03d};
                export SPINE-OUT;
                import SPINE-IN;
            }}"""
        )
    interface_blocks = []
    for spine in range(spine_count):
        interface_blocks.append(
            f"""    xe-0/0/{spine} {{
        unit 0 {{
            family inet {{
                address 10.200.{pair_index + 1}.{4 * spine + 1}/30;
            }}
        }}
    }}"""
        )
    newline = "\n"
    return f"""system {{
    host-name tor{pair_index}-juniper;
}}
interfaces {{
{newline.join(interface_blocks)}
    lo0 {{
        unit 0 {{
            family inet {{
                address 10.255.{pair_index + 1}.1/32;
            }}
        }}
    }}
}}
routing-options {{
    autonomous-system 65{pair_index:03d};
    router-id 10.255.{pair_index + 1}.1;
    static {{
        route 10.250.{pair_index + 1}.0/24 {{
            next-hop 10.200.{pair_index + 1}.{static_next_hop_octet};
            preference 1;
        }}
        route 10.251.{pair_index + 1}.0/24 {{
            discard;
            preference 1;
        }}
    }}
}}
policy-options {{
    prefix-list EXPORT {{
{newline.join(export_entries)}
        10.255.0.0/16;
    }}
    community EXPORTCOMM members [ {export_community} ];
    policy-statement SPINE-OUT {{
        term nets {{
            from {{
                prefix-list EXPORT;
                route-filter 10.255.0.0/16 prefix-length-range /16-/32;
            }}
            then {{
                community set EXPORTCOMM;
                accept;
            }}
        }}
        term final {{
            then reject;
        }}
    }}
    policy-statement SPINE-IN {{
        term own {{
            from {{
                route-filter 10.{pair_index + 1}.0.0/16 prefix-length-range /16-/32;
            }}
            then reject;
        }}
        term rest {{
            then {{
                local-preference {local_pref};
                accept;
            }}
        }}
    }}
}}
protocols {{
    bgp {{
        group SPINES {{
            type external;
{newline.join(neighbor_blocks)}
        }}
    }}
    ospf {{
        area 0.0.0.0 {{
{newline.join(f'            interface xe-0/0/{s}.0;' for s in range(spine_count))}
        }}
    }}
}}
"""


# ---------------------------------------------------------------------------
# Scenario 1: redundant ToR pairs
# ---------------------------------------------------------------------------


def scenario1_redundant_pairs(
    pair_count: int = 10, spine_count: int = 2, seed: int = 0
) -> Scenario:
    """Backup ToR pairs with 5 seeded BGP bugs and 2 static-route bugs.

    The BGP bugs are prefix-list entries missing from the backup router
    (the paper: "a prefix for an import filter was missing in the primary
    router but present in the backup"); the static bugs are differing
    next hops for the same prefix (the cascading-failure case).
    """
    rng = random.Random(seed)
    bgp_bug_pairs = sorted(rng.sample(range(pair_count), 5))
    static_bug_pairs = sorted(rng.sample(range(pair_count), 2))

    scenario = Scenario(
        name="Scenario 1",
        component="BGP / Static Routes",
        check="Semantic + Structural",
        expected_differences={"BGP": 5, "Static Routes": 2},
    )
    for pair_index in range(pair_count):
        drop = 1 + (pair_index % 3) if pair_index in bgp_bug_pairs else None
        static_octet = 5 if pair_index in static_bug_pairs else 1
        cisco_text = _cisco_tor(pair_index, spine_count)
        juniper_text = _juniper_tor(
            pair_index,
            spine_count,
            drop_prefix_index=drop,
            static_next_hop_octet=static_octet,
        )
        bugs = []
        if pair_index in bgp_bug_pairs:
            bugs.append(f"missing EXPORT prefix entry #{drop} on backup")
        if pair_index in static_bug_pairs:
            bugs.append("static route 10.250.x.0/24 has wrong next hop on backup")
        scenario.pairs.append(
            RouterPair(
                name=f"tor{pair_index}",
                primary=parse_cisco(cisco_text, f"tor{pair_index}-cisco.cfg"),
                backup=parse_juniper(juniper_text, f"tor{pair_index}-juniper.cfg"),
                seeded_bugs=bugs,
            )
        )
    return scenario


# ---------------------------------------------------------------------------
# Scenario 2: router replacement
# ---------------------------------------------------------------------------


def scenario2_router_replacement(
    replacement_count: int = 30, spine_count: int = 2, seed: int = 1
) -> Scenario:
    """30 Cisco→Juniper replacements with 4 seeded translation bugs.

    Bug classes from the paper: one incorrect community number and three
    incorrect local preferences, one of which sits on the iBGP route
    reflector (the severe-outage case).
    """
    rng = random.Random(seed)
    buggy = sorted(rng.sample(range(1, replacement_count), 3))  # local-pref bugs
    community_bug = rng.choice(
        [index for index in range(1, replacement_count) if index not in buggy]
    )

    scenario = Scenario(
        name="Scenario 2",
        component="BGP",
        check="Semantic",
        expected_differences={"BGP": 4},
    )
    for index in range(replacement_count):
        is_reflector = index == 0
        local_pref = 120
        community = "65000:100"
        bugs = []
        if index in buggy or (is_reflector and 0 in buggy):
            local_pref = 110
            bugs.append("wrong local-preference in translated config")
        if index == community_bug:
            community = "65000:101"
            bugs.append("wrong community number in translated config")
        cisco_text = _cisco_tor(index, spine_count)
        juniper_text = _juniper_tor(
            index,
            spine_count,
            local_pref=local_pref,
            export_community=community,
        )
        scenario.pairs.append(
            RouterPair(
                name=f"replacement{index}" + ("-reflector" if is_reflector else ""),
                primary=parse_cisco(cisco_text, f"repl{index}-old.cfg"),
                backup=parse_juniper(juniper_text, f"repl{index}-new.cfg"),
                seeded_bugs=bugs,
            )
        )
    # Guarantee one local-pref bug on a reflector-like device: if the rng
    # did not pick index 0, move the first bug there deterministically.
    if 0 not in buggy:
        first = scenario.pairs[buggy[0]]
        reflector = scenario.pairs[0]
        reflector_juniper = _juniper_tor(0, spine_count, local_pref=110)
        scenario.pairs[0] = RouterPair(
            name="replacement0-reflector",
            primary=reflector.primary,
            backup=parse_juniper(reflector_juniper, "repl0-new.cfg"),
            seeded_bugs=["wrong local-preference on route reflector"],
        )
        clean_juniper = _juniper_tor(buggy[0], spine_count)
        scenario.pairs[buggy[0]] = RouterPair(
            name=f"replacement{buggy[0]}",
            primary=first.primary,
            backup=parse_juniper(clean_juniper, f"repl{buggy[0]}-new.cfg"),
            seeded_bugs=[],
        )
    return scenario


# ---------------------------------------------------------------------------
# Scenario 3: gateway ACLs
# ---------------------------------------------------------------------------


_CISCO_GATEWAY_ACL = """\
hostname gateway-cisco
!
ip access-list extended VM_FILTER_1
 permit tcp 172.16.0.0 0.0.255.255 any eq 443
 permit tcp 172.16.0.0 0.0.255.255 any eq 80
 deny ipv4 9.140.0.0 0.0.1.255 any
 permit udp any 10.50.0.0 0.0.255.255 eq 53
 permit tcp any host 10.60.0.10 eq 22
 deny icmp any 10.70.0.0 0.0.0.255
 permit ip 10.80.0.0 0.0.255.255 10.81.0.0 0.0.255.255
!
"""

_JUNIPER_GATEWAY_ACL = """\
system {
    host-name gateway-juniper;
}
firewall {
    family inet {
        filter VM_FILTER_1 {
            term permit_https {
                from {
                    source-address { 172.16.0.0/16; }
                    protocol tcp;
                    destination-port 443;
                }
                then accept;
            }
            term permit_http {
                from {
                    source-address { 172.16.0.0/16; }
                    protocol tcp;
                    destination-port 80;
                }
                then accept;
            }
            term permit_whitelist {
                from {
                    source-address { 9.140.0.0/23; }
                    protocol icmp;
                }
                then accept;
            }
            term deny_blacklist {
                from {
                    source-address { 9.140.0.0/23; }
                }
                then discard;
            }
            term permit_dns {
                from {
                    destination-address { 10.50.0.0/16; }
                    protocol udp;
                    destination-port 53;
                }
                then accept;
            }
            term deny_icmp_block {
                from {
                    destination-address { 10.70.0.0/24; }
                    protocol icmp;
                }
                then discard;
            }
            term permit_east_west {
                from {
                    source-address { 10.80.0.0/16; }
                    destination-address { 10.81.0.0/17; }
                }
                then accept;
            }
        }
    }
}
"""


def scenario3_gateway_acls() -> Scenario:
    """One gateway pair whose ACLs differ in three seeded ways.

    1. ICMP from 9.140.0.0/23 — Cisco rejects it (the blacklist line),
       Juniper's whitelist term accepts it first (the Table 7 case),
    2. the Cisco SSH permit rule is missing from the Juniper filter,
    3. the east-west rule covers 10.81.0.0/16 on Cisco but /17 on Juniper.
    """
    scenario = Scenario(
        name="Scenario 3",
        component="ACLs",
        check="Semantic",
        expected_differences={"ACLs": 3},
    )
    scenario.pairs.append(
        RouterPair(
            name="gateway",
            primary=parse_cisco(_CISCO_GATEWAY_ACL, "gateway-cisco.cfg"),
            backup=parse_juniper(_JUNIPER_GATEWAY_ACL, "gateway-juniper.cfg"),
            seeded_bugs=[
                "ICMP from 9.140.0.0/23 accepted by Juniper whitelist, denied by Cisco",
                "SSH permit rule present on Cisco, missing on Juniper",
                "east-west destination 10.81.0.0/16 (Cisco) vs /17 (Juniper)",
            ],
        )
    )
    return scenario


def gateway_fleet(
    count: int = 6, outliers: int = 2, rule_count: int = 40, seed: int = 0
) -> Tuple[List[DeviceConfig], List[str]]:
    """A fleet of gateway routers intended to enforce identical policy.

    Alternating Cisco/Juniper devices render the same generated rule
    list; ``outliers`` of them receive an injected deviation (a flipped
    action on a reachable rule).  Returns the parsed fleet plus the
    hostnames expected to be flagged — the input for
    :func:`repro.core.fleet.compare_fleet`.
    """
    import random as _random

    from ..model.acl import AclAction, AclLine, IpWildcard, PortRange
    from ..model.types import Prefix
    from .acl_gen import random_rules, render_cisco_acl, render_juniper_filter

    if not 0 <= outliers < count:
        raise ValueError("need 0 <= outliers < count")
    rng = _random.Random(seed)
    rules = random_rules(rule_count, rng)
    outlier_indices = set(rng.sample(range(count), outliers))

    devices: List[DeviceConfig] = []
    expected: List[str] = []
    for index in range(count):
        hostname = f"gw{index}"
        device_rules = rules
        if index in outlier_indices:
            # A guaranteed-visible deviation: permit a unique host that
            # no generated rule covers (the pool lives in 10/8 and
            # 172.16/12; 192.0.2.x falls through to the default deny on
            # conforming devices).
            extra = AclLine(
                action=AclAction.PERMIT,
                dst=IpWildcard.from_prefix(Prefix.parse(f"192.0.2.{index}/32")),
                protocol=6,
                dst_ports=(PortRange.single(2222),),
            )
            device_rules = list(rules) + [extra]
            expected.append(hostname)
        if index % 2 == 0:
            text = render_cisco_acl("GW_POLICY", device_rules, hostname=hostname)
            devices.append(parse_cisco(text, f"{hostname}.cfg"))
        else:
            text = render_juniper_filter("GW_POLICY", device_rules, hostname=hostname)
            devices.append(parse_juniper(text, f"{hostname}.cfg"))
    return devices, sorted(expected)


def templated_clos_fleet(
    count: int = 32,
    roles: int = 3,
    rule_count: int = 24,
    seed: int = 0,
    vendors: int = 2,
    acls: int = 4,
    uplinks: int = 8,
) -> Tuple[List[DeviceConfig], Dict[str, str]]:
    """A heavily-templated Clos-style fleet with a few distinct roles.

    Real Clos fabrics stamp a handful of role templates (ToR,
    aggregation, spine) onto many devices; only the hostname differs
    within a role.  This generator does exactly that: each role is an
    independently-generated policy set of ``rule_count`` rules spread
    over ``acls`` named ACLs (``CLOS_POLICY_0``.. — real devices carry
    several per-interface policies, not one monolith) bound to
    ``uplinks`` templated interfaces, device ``i`` taking role
    ``i % roles``.  With ``vendors=2`` (the default)
    vendors alternate between consecutive clones of the same role, so
    each role renders as both Cisco and Juniper, like a mixed-vendor
    fabric; ``vendors=1`` keeps the whole fabric Cisco, like a
    single-vendor deployment.  The result is the symmetry-compression
    showcase: the device-fingerprint partition has one class per
    (role, vendor) — independent of ``count`` — so the compressed
    matrix stays constant-size while the fleet grows.

    Returns the parsed fleet plus ``hostname -> role name``.
    """
    import random as _random

    from .acl_gen import random_rules, render_cisco_acls, render_juniper_filters

    if roles < 1 or count < roles:
        raise ValueError("need 1 <= roles <= count")
    if vendors not in (1, 2):
        raise ValueError("vendors must be 1 or 2")
    if acls < 1:
        raise ValueError("need at least one ACL per device")
    acls = min(acls, rule_count)
    rng = _random.Random(seed)

    def _cisco_interfaces(names: List[str]) -> str:
        lines: List[str] = []
        for uplink in range(uplinks):
            lines.extend(
                [
                    f"interface Ethernet{uplink}",
                    f" description uplink{uplink}",
                    f" ip access-group {names[uplink % len(names)]} in",
                    "!",
                ]
            )
        return "\n".join(lines) + "\n" if lines else ""

    def _juniper_interfaces(names: List[str]) -> str:
        lines: List[str] = []
        if uplinks:
            lines.append("interfaces {")
            for uplink in range(uplinks):
                lines.extend(
                    [
                        f"    et-0/0/{uplink} {{",
                        f"        description uplink{uplink};",
                        "        unit 0 {",
                        "            family inet {",
                        "                filter {",
                        f"                    input {names[uplink % len(names)]};",
                        "                }",
                        "            }",
                        "        }",
                        "    }",
                    ]
                )
            lines.append("}")
        return "\n".join(lines) + "\n" if lines else ""

    def _role_policies() -> List[Tuple[str, List]]:
        rules = random_rules(rule_count, rng)
        share, leftover = divmod(rule_count, acls)
        policies = []
        start = 0
        for position in range(acls):
            size = share + (1 if position < leftover else 0)
            policies.append(
                (f"CLOS_POLICY_{position}", rules[start : start + size])
            )
            start += size
        return policies

    role_policies = [_role_policies() for _ in range(roles)]

    devices: List[DeviceConfig] = []
    role_of: Dict[str, str] = {}
    for index in range(count):
        role = index % roles
        hostname = f"clos{index:02d}"
        role_of[hostname] = f"role{role}"
        policies = role_policies[role]
        policy_names = [name for name, _ in policies]
        if vendors == 1 or (index // roles) % 2 == 0:
            text = render_cisco_acls(hostname, policies)
            text += _cisco_interfaces(policy_names)
            devices.append(parse_cisco(text, f"{hostname}.cfg"))
        else:
            text = render_juniper_filters(hostname, policies)
            text += _juniper_interfaces(policy_names)
            devices.append(parse_juniper(text, f"{hostname}.cfg"))
    return devices, role_of


def parameterized_clos_fleet(
    count: int = 12,
    roles: int = 3,
    rule_count: int = 8,
    seed: int = 0,
    acls: int = 2,
    uplinks: int = 2,
) -> Tuple[List[DeviceConfig], Dict[str, str]]:
    """A templated Clos fleet where *no two devices are byte-identical*.

    Like :func:`templated_clos_fleet`, device ``i`` stamps role
    ``i % roles`` (a shared per-role ACL policy set bound to
    ``uplinks`` interfaces) — but every device additionally carries its
    own unique loopback, uplink subnets, router-ids, and BGP neighbor
    addresses, exactly as a real fabric assigns per-device parameters
    to one role template.  The device-fingerprint partition therefore
    degenerates to ``count`` singleton classes, while the *template*
    partition has one class per role and the near-symmetry plan
    analyzes one pair per role pair — the showcase workload for
    compressed :func:`~repro.core.fleet.compare_fleet`.

    All devices are Cisco (template equality is per-vendor by
    construction: vendors render different stanza structure).  Returns
    the parsed fleet plus ``hostname -> role name``.
    """
    import random as _random

    from .acl_gen import random_rules, render_cisco_acls

    if roles < 1 or count < roles:
        raise ValueError("need 1 <= roles <= count")
    if acls < 1:
        raise ValueError("need at least one ACL per device")
    if not 1 <= count <= 250:
        raise ValueError("need 1 <= count <= 250 (per-device /24 octets)")
    acls = min(acls, rule_count)
    rng = _random.Random(seed)

    def _role_policies() -> List[Tuple[str, List]]:
        rules = random_rules(rule_count, rng)
        share, leftover = divmod(rule_count, acls)
        policies = []
        start = 0
        for position in range(acls):
            size = share + (1 if position < leftover else 0)
            policies.append(
                (f"PCLOS_POLICY_{position}", rules[start : start + size])
            )
            start += size
        return policies

    role_policies = [_role_policies() for _ in range(roles)]

    devices: List[DeviceConfig] = []
    role_of: Dict[str, str] = {}
    for index in range(count):
        role = index % roles
        hostname = f"pclos{index:02d}"
        role_of[hostname] = f"role{role}"
        policies = role_policies[role]
        policy_names = [name for name, _ in policies]
        octet = index + 1
        loopback = f"10.255.{octet}.1"
        lines = [render_cisco_acls(hostname, policies).rstrip("\n")]
        lines.append("interface Loopback0")
        lines.append(f" ip address {loopback} 255.255.255.255")
        lines.append("!")
        for uplink in range(uplinks):
            lines.append(f"interface Ethernet{uplink}")
            lines.append(f" description uplink{uplink}")
            lines.append(
                f" ip address 10.200.{octet}.{4 * uplink + 1}"
                " 255.255.255.252"
            )
            lines.append(
                f" ip access-group {policy_names[uplink % len(policy_names)]} in"
            )
            lines.append("!")
        lines.append("router bgp 65000")
        lines.append(f" bgp router-id {loopback}")
        for uplink in range(uplinks):
            peer = f"10.200.{octet}.{4 * uplink + 2}"
            lines.append(f" neighbor {peer} remote-as 64{uplink:03d}")
            lines.append(f" neighbor {peer} update-source {loopback}")
            lines.append(f" neighbor {peer} send-community")
        lines.append("!")
        lines.append("router ospf 1")
        lines.append(f" router-id {loopback}")
        lines.append(f" network 10.200.{octet}.0 0.0.0.255 area 0")
        lines.append("!")
        text = "\n".join(lines) + "\n"
        devices.append(parse_cisco(text, f"{hostname}.cfg"))
    return devices, role_of


def full_table6_workload(seed: int = 0) -> List[Scenario]:
    """All three scenarios with the paper's difference counts seeded."""
    return [
        scenario1_redundant_pairs(seed=seed),
        scenario2_router_replacement(seed=seed + 1),
        scenario3_gateway_acls(),
    ]
