import dataclasses
import gc
import random
import re
import sys
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexicolor import instances
from flexicolor.errors import FormatError, PreconditionError
from flexicolor.graph import Graph, KTreeOrder, TreedepthForest, validate_ktree_order
from flexicolor.instances import (
    FIXTURES,
    InstanceFile,
    fig_3tree,
    fig_cycle,
    fig_diamond,
    fig_triplet_cover,
    parse,
    random_bounded_degree,
    random_ktree,
    random_three_connected,
    random_treedepth,
    serialize,
    two_cliques_matching,
)
from flexicolor.degeneracy import is_three_connected
from flexicolor.oracle import optimal_satisfaction
from reference import reference_parse


class TestRoundTrip:
    def test_all_fixtures_round_trip_byte_identically(self):
        for name, make in FIXTURES.items():
            inst = make()
            text = serialize(inst)
            assert serialize(parse(text)) == text, name

    def test_random_families_round_trip(self):
        insts = [
            random_bounded_degree(1, 9, 3),
            random_ktree(2, 9, 2),
            random_treedepth(3, 9, 3),
            random_three_connected(4, 12),
        ]
        for inst in insts:
            text = serialize(inst)
            back = parse(text)
            assert serialize(back) == text
            assert back.g == inst.g
            assert back.L == inst.L

    def test_weighted_request_round_trip(self):
        inst = random_treedepth(5, 8, 3, request_kind="weighted")
        text = serialize(inst)
        back = parse(text)
        assert back.request == inst.request

    def test_empty_request_is_valid(self):
        inst = fig_diamond()
        inst.request = None
        text = serialize(inst)
        assert parse(text).request is None


class TestParserDiagnostics:
    def good(self):
        return serialize(fig_diamond())

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse("nonsense\n")

    def test_off_list_request_rejected(self):
        text = self.good().replace("request 0 2", "request 0 9")
        with pytest.raises(FormatError, match="not in its list"):
            parse(text)

    def test_duplicate_edge_line_number(self):
        text = self.good().replace("edge 0 1\n", "edge 0 1\nedge 0 1\n")
        with pytest.raises(FormatError) as e:
            parse(text)
        assert e.value.line == 5

    def test_out_of_order_sections(self):
        lines = self.good().splitlines()
        # move the vertices line to the end
        vert = [l for l in lines if l.startswith("vertices")][0]
        lines.remove(vert)
        lines.append(vert)
        with pytest.raises(FormatError, match="order|before"):
            parse("\n".join(lines) + "\n")

    def test_missing_list(self):
        text = self.good().replace("list 3 1 3\n", "")
        with pytest.raises(FormatError, match="missing lists"):
            parse(text)

    def test_swapped_edge_lines_line_number(self):
        text = self.good().replace("edge 0 1\nedge 0 2\n", "edge 0 2\nedge 0 1\n")
        with pytest.raises(FormatError, match="strictly increase") as e:
            parse(text)
        assert e.value.line == 5

    @pytest.mark.parametrize(
        "old,new",
        [
            ("edge 0 1\n", "edge 0 +1\n"),
            ("edge 0 1\n", "edge 0 01\n"),
            ("edge 0 1\n", "edge 0 \u0661\n"),
            ("list 0 1 2\n", "list 0 1 +2\n"),
            ("vertices 4\n", "vertices 4\nvertices 4\n"),
            ("list 0 1 2\nlist 1 1 2 3\n", "list 1 1 2 3\nlist 0 1 2\n"),
            ("request 0 2\nrequest 1 1\n", "request 1 1\nrequest 0 2\n"),
        ],
    )
    def test_non_canonical_document_rejected(self, old, new):
        text = self.good()
        assert old in text
        with pytest.raises(FormatError):
            parse(text.replace(old, new))

    def test_non_canonical_weight_rejected(self):
        text = serialize(random_treedepth(1, 6, 2))
        assert text.splitlines()[-1].startswith("request ")
        with pytest.raises(FormatError, match="weight"):
            parse(text[:-1] + "/1\n")

    @pytest.mark.parametrize("tail", ["", "list 0 1\nktree 0\norder 0\n"])
    def test_vertex_count_far_beyond_the_document(self, tail):
        # neither check may build a list of all the vertices
        text = "flexicolor-instance 1\nvertices 1000000000000\n" + tail
        start = time.process_time()
        with pytest.raises(FormatError):
            parse(text)
        assert time.process_time() - start < 1

    def test_missing_final_newline(self):
        with pytest.raises(FormatError, match="newline"):
            parse(self.good()[:-1])

    def test_bad_weight(self):
        inst = random_treedepth(1, 6, 2)
        text = serialize(inst)
        line = next(l for l in text.splitlines() if l.startswith("request "))
        broken = text.replace(line, " ".join(line.split()[:3]) + " x/y")
        with pytest.raises(FormatError, match="weight"):
            parse(broken)


class TestFixtures:
    def test_diamond_matches_figure(self):
        inst = fig_diamond()
        assert inst.g.n == 4 and inst.g.m == 5
        assert inst.L == {0: {1, 2}, 1: {1, 2, 3}, 2: {1, 2, 3}, 3: {1, 3}}
        assert inst.request.domain() == set(range(inst.g.n))
        assert optimal_satisfaction(inst.g, inst.L, inst.request).optimum == 0

    def test_cycle_fixture_zero_optimum(self):
        inst = fig_cycle()
        assert inst.g.is_cycle() and inst.g.n == 10
        assert all(len(inst.L[v]) == 2 for v in range(10))
        assert optimal_satisfaction(inst.g, inst.L, inst.request).optimum == 0

    def test_cycle_fixture_deterministic(self):
        assert serialize(fig_cycle()) == serialize(fig_cycle())

    def test_3tree_order_valid(self):
        inst = fig_3tree()
        assert inst.g.n == 8 and inst.ktree.k == 3
        inst.validate()

    def test_triplet_cover_shape(self):
        inst = fig_triplet_cover()
        assert inst.g.n == 15 and inst.g.m == 30
        for v in range(5, 15):
            assert inst.g.degree(v) == 3
        assert is_three_connected(inst.g)

    def test_two_cliques_matching_shape(self):
        inst = two_cliques_matching(3)
        assert inst.g.n == 6 and inst.g.m == 9
        assert all(inst.g.degree(v) == 3 for v in range(6))
        assert not inst.g.is_complete()


class TestRandomFamilies:
    def test_bounded_degree_class(self):
        for seed in range(10):
            inst = random_bounded_degree(seed, 10, 4)
            g = inst.g
            assert g.is_connected() and g.max_degree() == 4
            for v in range(g.n):
                need = 4 if g.degree(v) == 4 else g.degree(v) + 1
                assert len(inst.L[v]) == need

    def test_ktree_orders_validate(self):
        for seed in range(5):
            inst = random_ktree(seed, 12, 3)
            inst.validate()

    def test_treedepth_heights(self):
        for seed in range(5):
            inst = random_treedepth(seed, 12, 3)
            inst.validate()
            assert inst.forest.height() <= 3

    def test_three_connected_verified(self):
        for seed in range(5):
            inst = random_three_connected(seed, 12)
            assert is_three_connected(inst.g)
            assert inst.g.max_degree() == 4
            degs = {inst.g.degree(v) for v in range(inst.g.n)}
            assert len(degs) > 1

    def test_deterministic_per_seed(self):
        a = random_bounded_degree(9, 10, 3)
        b = random_bounded_degree(9, 10, 3)
        assert serialize(a) == serialize(b)


# a token that spells an integer or a rational, in any spelling
NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")


@lru_cache(maxsize=None)
def canonical_documents() -> tuple:
    insts = [make() for make in FIXTURES.values()] + [
        random_bounded_degree(1, 9, 3),
        random_bounded_degree(2, 10, 4, request_kind="weighted"),
        random_ktree(2, 9, 2),
        random_ktree(3, 8, 3, request_kind="unweighted"),
        random_treedepth(3, 9, 3),
        random_treedepth(5, 8, 3, request_kind="weighted"),
        random_three_connected(4, 12),
    ]
    return tuple(serialize(inst) for inst in insts)


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# respellings of a number token that int() or a digit class may accept
# but serialize never writes: other digits, a sign, a leading zero, an
# underscore, a negative zero
RESPELLINGS = (
    lambda tok: tok.translate(ARABIC_INDIC),
    lambda tok: tok + "0".translate(ARABIC_INDIC),
    lambda tok: "+" + tok,
    lambda tok: "-" + tok,
    lambda tok: "0" + tok,
    lambda tok: tok[0] + "_" + tok[1:] if len(tok) > 1 else tok + "_0",
    lambda tok: "-0",
)
MUTATIONS = (
    "respell", "swap", "duplicate", "crlf", "tab", "double-space",
    "trailing-space", "loop-edge", "repeat-color",
)


def mutate(text: str, data) -> str:
    """One change to a canonical document: a number respelled, two edge
    lines swapped, a line duplicated, a CR before a newline, a tab or a
    doubled space for a space, a trailing space, an `edge 3 3` line, or
    a list color repeated."""
    lines = text.split("\n")[:-1]
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "respell":
        spots = [
            (i, j)
            for i, line in enumerate(lines)
            for j, tok in enumerate(line.split(" "))
            if NUMBER.fullmatch(tok)
        ]
        i, j = data.draw(st.sampled_from(spots))
        toks = lines[i].split(" ")
        toks[j] = data.draw(st.sampled_from(RESPELLINGS))(toks[j])
        lines[i] = " ".join(toks)
    elif kind in ("swap", "loop-edge"):
        rows = [i for i, line in enumerate(lines) if line.startswith("edge ")]
        if kind == "swap":
            pair = st.lists(st.sampled_from(rows), min_size=2, max_size=2, unique=True)
            a, b = data.draw(pair)
            lines[a], lines[b] = lines[b], lines[a]
        else:
            lines.insert(data.draw(st.sampled_from(rows + [rows[-1] + 1])), "edge 3 3")
    elif kind == "repeat-color":
        rows = [i for i, line in enumerate(lines) if line.startswith("list ")]
        i = data.draw(st.sampled_from(rows))
        toks = lines[i].split(" ")
        j = data.draw(st.integers(2, len(toks) - 1))
        toks.insert(j, toks[j])
        lines[i] = " ".join(toks)
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "crlf":
            lines[i] += "\r"
        elif kind == "trailing-space":
            lines[i] += " "
        else:
            spaces = [j for j, ch in enumerate(lines[i]) if ch == " "]
            if spaces:
                j = data.draw(st.sampled_from(spaces))
                spaced = "\t" if kind == "tab" else "  "
                lines[i] = lines[i][:j] + spaced + lines[i][j + 1 :]
    return "\n".join(lines) + "\n"


# a document whose body no other test document has: parsing it leaves
# parse's slot holding a body that the next document does not share
OTHER_BODY = "flexicolor-instance 1\nname other-body\nvertices 1\nlist 0 0\n"


def outcome(parser, text: str):
    """("ok", the result serialized) or ("error", the line) of one parser."""
    try:
        return "ok", serialize(parser(text))
    except FormatError as exc:
        return "error", exc.line


class TestCanonicalBothWays:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_document_rejected_or_round_trips(self, data):
        mutated = mutate(data.draw(st.sampled_from(canonical_documents())), data)
        try:
            inst = parse(mutated)
        except FormatError:
            return
        assert serialize(inst) == mutated

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_parse_agrees_with_the_line_by_line_reference(self, data):
        mutated = mutate(data.draw(st.sampled_from(canonical_documents())), data)
        assert outcome(parse, mutated) == outcome(reference_parse, mutated)

    @pytest.mark.parametrize("index", [3, 6, 8, 10, 11])
    def test_every_respelling_of_every_number_agrees(self, index):
        text = canonical_documents()[index]
        lines = text.split("\n")
        for i, line in enumerate(lines):
            toks = line.split(" ")
            for j, tok in enumerate(toks):
                if not NUMBER.fullmatch(tok):
                    continue
                for respell in RESPELLINGS:
                    changed = toks[:j] + [respell(tok)] + toks[j + 1 :]
                    mutated = "\n".join(lines[:i] + [" ".join(changed)] + lines[i + 1 :])
                    assert outcome(parse, mutated) == outcome(reference_parse, mutated)

    @pytest.mark.parametrize(
        "old,line",
        [("edge 0 1", 4), ("list 1 1 2 3", 10), ("request 2 1", 16), ("vertices 4", 3)],
    )
    def test_number_longer_than_int_converts(self, old, line):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        text = serialize(fig_diamond())
        assert old + "\n" in text
        broken = text.replace(old + "\n", old[:-1] + "1" * (limit + 1) + "\n")
        assert outcome(parse, broken) == ("error", line)
        assert outcome(reference_parse, broken) == ("error", line)

    @pytest.mark.parametrize(
        "old,new,line",
        [
            ("edge 0 1\n", "edge 0 1\nedge 3 3\n", 5),
            ("edge 0 2\n", "edge 0 2 \n", 5),
            ("edge 1 2\n", "edge 1\t2\n", 6),
            ("list 1 1 2 3\n", "list 1 1 2 2 3\n", 10),
            ("list 2 1 2 3\n", "list 2 1 2 \u0663\n", 11),
            ("request 2 1\n", "request 2 1_0\n", 16),
            ("request 3 3\n", "request 3  3\n", 17),
        ],
    )
    def test_first_bad_line_of_a_run(self, old, new, line):
        text = serialize(fig_diamond())
        assert old in text
        broken = text.replace(old, new)
        assert outcome(parse, broken) == ("error", line)
        assert outcome(reference_parse, broken) == ("error", line)


def body_and_tail(text: str) -> tuple:
    """The lines of text before its first request-kind line, and the
    lines from it on."""
    lines = text.split("\n")[:-1]
    at = next(
        (i for i, line in enumerate(lines) if line.split(" ")[0] == "request-kind"),
        len(lines),
    )
    return lines[:at], lines[at:]


# each fault of a body, and the key of the line it changes
BODY_FAULTS = {
    "none": None, "order": "order", "negative-color": "list",
    "td-parent": "td-parent", "drop-list": "list", "drop-order": "order",
}
TAIL_MUTATIONS = (
    "respell", "swap", "duplicate", "off-list", "vertex-past-n", "weight",
    "bad-kind", "second-kind", "drop-tail", "add-tail",
)


def fault_body(body: list, data) -> list:
    """The body with a fault that no line check sees: an order that is
    no k-tree order, a negative list color, another td-parent entry, a
    missing list line or a missing order line; or unchanged."""
    rows = {line.split(" ")[0]: i for i, line in enumerate(body)}
    kinds = [kind for kind, key in BODY_FAULTS.items() if key is None or key in rows]
    kind = data.draw(st.sampled_from(kinds))
    body = list(body)
    if kind == "order":
        toks = body[rows["order"]].split(" ")
        a, b = data.draw(st.lists(st.integers(1, len(toks) - 1), min_size=2, max_size=2, unique=True))
        toks[a], toks[b] = toks[b], toks[a]
        body[rows["order"]] = " ".join(toks)
    elif kind == "negative-color":
        i = data.draw(st.sampled_from([i for i, line in enumerate(body) if line.startswith("list ")]))
        toks = body[i].split(" ")
        body[i] = " ".join(toks[:2] + ["-1"] + toks[3:])
    elif kind == "td-parent":
        toks = body[rows["td-parent"]].split(" ")
        j = data.draw(st.integers(1, len(toks) - 1))
        toks[j] = str(data.draw(st.integers(-1, len(toks) - 2)))
        body[rows["td-parent"]] = " ".join(toks)
    elif kind.startswith("drop"):
        del body[rows[BODY_FAULTS[kind]]]
    return body


def mutate_tail(tail: list, n: int, data) -> list:
    """The request lines with one change: a number respelled, two lines
    swapped, a line duplicated, a color off its list, a vertex past the
    last one, a weight of 0 or -1, an unknown or a second request-kind
    line, every line dropped, or a request added to a document with
    none."""
    requests = list(range(1, len(tail)))
    kinds = [
        kind for kind in TAIL_MUTATIONS
        if (kind == "add-tail") == (not tail)
        and (kind != "swap" or len(requests) > 1)
        and (kind not in ("respell", "duplicate", "off-list", "vertex-past-n") or requests)
        and (kind != "weight" or (requests and tail[0] != "request-kind unweighted"))
    ]
    kind = data.draw(st.sampled_from(kinds))
    tail = list(tail)
    if kind == "add-tail":
        return ["request-kind unweighted", f"request 0 {data.draw(st.integers(0, 4))}"]
    if kind == "drop-tail":
        return []
    if kind == "bad-kind":
        tail[0] = "request-kind bogus"
    elif kind == "second-kind":
        tail.insert(data.draw(st.integers(1, len(tail))), tail[0])
    elif kind == "swap":
        a, b = data.draw(st.lists(st.sampled_from(requests), min_size=2, max_size=2, unique=True))
        tail[a], tail[b] = tail[b], tail[a]
    elif kind == "duplicate":
        i = data.draw(st.sampled_from(requests))
        tail.insert(i, tail[i])
    else:
        i = requests[-1] if kind == "vertex-past-n" else data.draw(st.sampled_from(requests))
        toks = tail[i].split(" ")
        if kind == "respell":
            j = data.draw(st.integers(1, len(toks) - 1))
            toks[j] = data.draw(st.sampled_from(RESPELLINGS))(toks[j])
        elif kind == "off-list":
            toks[2] = "1000"
        elif kind == "vertex-past-n":
            toks[1] = str(n)
        else:  # weight
            toks[3] = data.draw(st.sampled_from(["0", "-1"]))
        tail[i] = " ".join(toks)
    return tail


def full_outcome(text: str):
    """outcome(parse, text), with the message of an error that has no
    line."""
    try:
        return "ok", serialize(parse(text))
    except FormatError as exc:
        return "error", exc.line, None if exc.line is not None else str(exc)


class TestWarmSlot:
    """parse keeps the checked body of the last document it read; a
    document with the same body must parse as it would from cold."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_body_documents_agree_with_the_reference(self, data):
        body, tail = body_and_tail(data.draw(st.sampled_from(canonical_documents())))
        body = fault_body(body, data)
        n = int(next(line for line in body if line.startswith("vertices ")).split(" ")[1])
        mutated = "\n".join(body + mutate_tail(tail, n, data)) + "\n"
        parse(OTHER_BODY)
        cold = full_outcome(mutated)
        # the slot now holds the body, read from a document with another
        # tail or with this one
        full_outcome("\n".join(body + data.draw(st.sampled_from([tail, []]))) + "\n")
        warm = full_outcome(mutated)
        assert warm == cold
        assert warm[:2] == outcome(reference_parse, mutated)[:2]

    def test_bad_order_and_bad_request_line_give_the_request_line(self):
        text = serialize(random_ktree(2, 9, 2, request_kind="unweighted"))
        order = next(line for line in text.split("\n") if line.startswith("order "))
        bad_order = text.replace(order, "order 0 1 8 2 3 4 5 6 7")
        with pytest.raises(FormatError, match="order invalid at position 2") as warm:
            parse(bad_order)
        assert warm.value.line is None
        request = bad_order[bad_order.index("\nrequest ") + 1 :].split("\n")[0]
        line = bad_order.split("\n").index(request) + 1
        both = bad_order.replace(request, request.replace(" ", " +", 1))
        for _ in range(2):  # warm, then hit again
            assert outcome(parse, both) == ("error", line)
        assert outcome(reference_parse, both) == ("error", line)

    def test_a_body_of_the_same_length_is_read(self):
        text = serialize(random_ktree(4, 12, 2))
        assert parse(text).seed == 4
        assert parse(text.replace("\nseed 4\n", "\nseed 5\n")).seed == 5

    def test_changing_a_parsed_instance_leaves_the_next_parse(self):
        text = serialize(random_ktree(4, 12, 2))
        first = parse(text)
        assert all(isinstance(lst, frozenset) for lst in first.L.values())
        first.L[0] = frozenset({99})
        second = parse(text)
        assert second.L is not first.L and serialize(second) == text
        second.L = {}
        second.request = None
        third = parse(text)
        assert serialize(third) == text and third.g is first.g


class TestGraphFacts:
    """A graph keeps one value per fact name, rebuilt when the key the
    value was built for differs; the instance checks keep their verdicts
    on the order and the forest there."""

    def test_one_value_per_name_while_the_key_is_equal(self):
        g = Graph(3, [(0, 1), (1, 2)])
        built = []

        def build(value):
            return lambda: built.append(value) or value

        key = (1, frozenset({2}))
        assert g.fact("a", key, build("x")) == "x"
        # a key equal by value, not the same object, gets the kept value
        assert g.fact("a", (1, frozenset({2})), build("y")) == "x"
        assert g.fact("b", key, build("z")) == "z"
        assert g.fact("a", key, build("w")) == "x"
        # a kept None is a value like any other
        assert g.fact("c", key, build(None)) is None
        assert g.fact("c", key, build("v")) is None
        assert built == ["x", "z", None]
        # another key builds again and replaces the kept value
        assert g.fact("a", (2,), build("u")) == "u"
        assert g.fact("a", key, build("t")) == "t"
        assert built == ["x", "z", None, "u", "t"]

        def refuse():
            built.append("refused")
            raise PreconditionError("refused")

        # a build that raises keeps nothing, so it runs on every call,
        # and the value kept before it stays
        for _ in range(2):
            with pytest.raises(PreconditionError, match="refused"):
                g.fact("a", (3,), refuse)
        assert g.fact("a", key, build("s")) == "t"
        assert built[5:] == ["refused", "refused"]
        # an equal graph keeps its own facts
        assert Graph(3, [(0, 1), (1, 2)]).fact("a", key, build("r")) == "r"

    def test_serialize_checks_an_order_once(self, monkeypatch):
        made = random_ktree(4, 12, 2)
        # a graph of its own, so that the generator's check is not kept
        inst = dataclasses.replace(made, g=Graph(made.g.n, made.g.edges))
        bad = KTreeOrder(2, made.ktree.sequence[::-1])
        checks = []

        def validate(g, order):
            checks.append(order)
            return validate_ktree_order(g, order)

        monkeypatch.setattr(instances, "validate_ktree_order", validate)
        texts = {serialize(inst) for _ in range(8)}
        assert texts == {serialize(made)} and checks == [made.ktree]
        inst.ktree = bad
        errors = []
        for _ in range(8):
            with pytest.raises(PreconditionError, match="order invalid") as exc:
                serialize(inst)
            errors.append(str(exc.value))
        assert errors == errors[:1] * 8 and checks == [made.ktree, bad]

    def test_serialize_checks_a_forest_once(self, monkeypatch):
        made = random_treedepth(4, 12, 3)
        inst = dataclasses.replace(made, g=Graph(made.g.n, made.g.edges))
        checks = []
        validate = TreedepthForest.validate
        monkeypatch.setattr(
            TreedepthForest,
            "validate",
            lambda forest, g: checks.append(g) or validate(forest, g),
        )
        assert {serialize(inst) for _ in range(8)} == {serialize(made)}
        assert checks == [inst.g]


class TestParseScaling:
    def test_parse_time_linear_in_document(self):
        def best_of_five(n):
            text = serialize(random_ktree(1, n, 2, request_size=n // 4))
            best = float("inf")
            for _ in range(5):
                parse(OTHER_BODY)  # so that each timed parse reads the body
                # a full collection walks every object the test session
                # holds, so it would time the heap rather than the parse
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    parse(text)
                    best = min(best, time.process_time() - start)
                finally:
                    gc.enable()
            return best

        # four times the vertices: linear parsing takes about 4 times as
        # long, a quadratic duplicate-edge scan about 15 times
        ratio = best_of_five(16000) / best_of_five(4000)
        assert ratio < 8, ratio
