"""The PBR decision memo is indistinguishable from the scan.

``EdgePolicy.classify`` remembers, per ``(protocol, tos, src_ip,
dst_ip)``, which entry the first-match scan chose.  ``reference_classify``
below is ``classify`` as it was before the memo, verbatim; the property
drives two mirrored policies through the same interleaving of every
mutator and of classifications, one through the memo and one through
the reference, and requires the same return value (or the same error)
and the same ``hits`` on every entry after every step.

Each invalidation in ``freertr/tunnel.py`` and the notification in
``AccessList.add`` is load-bearing for this property: deleting any one
of the four that can change a match (``add_access_list``,
``AccessList.add`` on an installed list, ``bind`` appending, ``unbind``)
makes it fail.  ``remove_access_list`` refuses to delete a referenced
list, so on its own it cannot change a match; its clear is there so the
rule stays "every mutator drops the memo".
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.freertr.acl import AccessList, AclRule
from repro.freertr.tunnel import DECISION_MEMO_SIZE, EdgePolicy, PolkaTunnel
from repro.net.packets import Packet
from repro.polka.routing import Route

ROUTER = "r0"
ACL_NAMES = ("a", "b", "c")
TUNNEL_IDS = (1, 2)

#: overlapping prefixes, any/one protocol, any/one ToS: most packets
#: below match several of these, so entry order decides
RULES = tuple(
    AclRule.parse(text.split())
    for text in (
        "permit any 0.0.0.0 0.0.0.0 0.0.0.0 0.0.0.0",
        "permit any 10.0.0.0 255.0.0.0 0.0.0.0 0.0.0.0",
        "permit tcp 10.1.0.0 255.255.0.0 20.0.0.0 255.0.0.0",
        "permit icmp 10.1.1.0 255.255.255.0 20.2.2.2 255.255.255.255",
        "permit udp 10.1.1.1 255.255.255.255 20.2.2.2 255.255.255.255 tos 32",
        "permit any 10.1.1.1 255.255.255.255 0.0.0.0 0.0.0.0 tos 32",
    )
)

PACKETS = tuple(
    Packet(src="h1", dst="h2", size=100, protocol=protocol, tos=tos,
           src_ip=src_ip, dst_ip=dst_ip)
    for protocol in ("tcp", "udp", "icmp", "icmp-reply")
    for tos in (0, 32)
    for src_ip, dst_ip in (
        ("10.1.1.1", "20.2.2.2"),
        ("10.9.9.9", "20.2.2.2"),
        ("30.3.3.3", "20.2.2.2"),
        ("", ""),  # no IPs: never matches, however permissive the rule
    )
)


def reference_classify(policy, packet):
    for entry in policy.entries:
        acl = policy.access_lists.get(entry.acl)
        if acl is not None and acl.permits(packet):
            entry.hits += 1
            tunnel = policy.tunnels[entry.tunnel_id]
            return tunnel.route.route_id, tunnel.egress
    return None


def new_policy():
    policy = EdgePolicy(ROUTER)
    for tid in TUNNEL_IDS:
        path = (ROUTER, f"core{tid}", "r9")
        route = Route(path=path, route_id=1000 + tid, moduli=())
        policy.add_tunnel(PolkaTunnel(tunnel_id=tid, path=path, route=route))
    return policy


def apply(policy, op, classify):
    kind, *args = op
    if kind == "add_access_list":  # new, or replacing an installed one
        name, rules = args
        return policy.add_access_list(
            AccessList(name, [RULES[i] for i in rules])
        )
    if kind == "acl_add":  # AccessList.add after install
        name, rule = args
        return policy.access_lists[name].add(RULES[rule])
    if kind == "bind":  # appends, re-points, or is a no-op
        return policy.bind(*args)
    if kind == "unbind":
        return policy.unbind(*args)
    if kind == "remove_access_list":
        return policy.remove_access_list(*args)
    if kind == "classify":
        return classify(policy, PACKETS[args[0]])
    return [classify(policy, packet) for packet in PACKETS]


def outcome(policy, op, classify):
    try:
        return "ok", apply(policy, op, classify)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def state(policy):
    return [(e.acl, e.tunnel_id, e.hits) for e in policy.entries]


rule_ids = st.integers(0, len(RULES) - 1)
tunnel_ids = st.sampled_from(TUNNEL_IDS)


def operations(policy):
    """Operations to draw the next step from, given ``policy``'s state.

    Mutators are offered on the names they apply to, so that a run
    really binds, classifies, unbinds and classifies again; the same
    mutators on any name ride along for the error paths (unknown list,
    list still referenced, no such entry)."""
    installed = sorted(policy.access_lists)
    bound = [entry.acl for entry in policy.entries]
    unbound = [name for name in installed if name not in bound]

    def on(candidates):
        return st.sampled_from(candidates or ACL_NAMES)

    anywhere = st.sampled_from(ACL_NAMES)
    return st.one_of(
        st.tuples(
            st.just("add_access_list"), anywhere,
            st.lists(rule_ids, max_size=2),
        ),
        st.tuples(st.just("acl_add"), on(installed), rule_ids),
        st.tuples(st.just("bind"), on(installed), tunnel_ids),
        st.tuples(st.just("unbind"), on(bound)),
        st.tuples(st.just("remove_access_list"), on(unbound)),
        st.tuples(
            st.sampled_from(("bind", "unbind", "remove_access_list")),
            anywhere, tunnel_ids,
        ).map(lambda op: op if op[0] == "bind" else op[:2]),
        st.tuples(st.just("classify"), st.integers(0, len(PACKETS) - 1)),
        # every packet at once, so the next mutator meets a full memo
        st.just(("classify_all",)),
    )


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_memo_is_indistinguishable_from_the_scan(data):
    memoised, scanned = new_policy(), new_policy()
    for step in range(data.draw(st.integers(1, 40), label="steps")):
        op = data.draw(operations(scanned), label=f"step {step}")
        got = outcome(memoised, op, EdgePolicy.classify)
        want = outcome(scanned, op, reference_classify)
        assert got == want, (step, op)
        assert state(memoised) == state(scanned), (step, op)
        assert memoised.reconfigurations == scanned.reconfigurations


def test_memo_is_bounded_and_still_right_past_its_size():
    memoised, scanned = new_policy(), new_policy()
    for policy in (memoised, scanned):
        policy.add_access_list(AccessList("a", [RULES[1]]))
        policy.bind("a", 1)
    for i in range(DECISION_MEMO_SIZE * 2 + 7):
        packet = Packet(
            src="h1", dst="h2", size=100,
            src_ip=f"{10 + i % 2}.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}",
            dst_ip="20.2.2.2",
        )
        assert memoised.classify(packet) == reference_classify(
            scanned, packet
        )
        assert len(memoised._decisions) <= DECISION_MEMO_SIZE
    assert state(memoised) == state(scanned)
    assert memoised.entries[0].hits > DECISION_MEMO_SIZE


PERMITTED = PACKETS[0]  # tcp 10.1.1.1 -> 20.2.2.2, matched by RULES[1]
EVERYTHING = RULES[0]


def test_a_list_holds_a_policy_only_while_installed_there():
    policy = new_policy()
    first = AccessList("a", [RULES[1]])
    policy.add_access_list(first)
    policy.add_access_list(first)  # installing twice registers once
    assert len(first._memos) == 1
    second = AccessList("a")
    policy.add_access_list(second)  # replacing lets go of the old one
    assert first._memos == () and len(second._memos) == 1
    policy.remove_access_list("a")
    assert second._memos == ()


def test_a_shared_list_tells_every_policy_it_is_installed_in():
    shared = AccessList("a")
    policies = [new_policy(), new_policy()]
    for policy in policies:
        policy.add_access_list(shared)
        policy.bind("a", 1)
        assert policy.classify(PERMITTED) is None
    shared.add(EVERYTHING)
    for policy in policies:
        assert policy.classify(PERMITTED) == (1001, "r9")


def test_a_copied_policy_is_told_by_its_own_lists_only():
    original = new_policy()
    original.add_access_list(AccessList("a"))
    original.bind("a", 1)
    clone = copy.deepcopy(original)
    assert original.classify(PERMITTED) is None
    assert clone.classify(PERMITTED) is None
    clone.access_lists["a"].add(EVERYTHING)
    assert clone.classify(PERMITTED) == (1001, "r9")
    assert original.classify(PERMITTED) is None
    assert clone.entries[0].hits == 1 and original.entries[0].hits == 0
