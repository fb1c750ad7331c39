import collections
import hashlib
import itertools
import os
import stat

import pytest

from flatknots import (
    classify,
    crossing_number,
    enumerate_decreasing,
    enumerate_diagrams,
    equivalent,
    fr3_orbit,
    parse,
    serialize,
    u_polynomial,
    write_catalog,
)
from flatknots import catalog, diagram, moves, reduce
from flatknots.diagram import canonical_sort_key, canonical_word
from conftest import (
    catalog_text,
    classify_oracle,
    enumerate_oracle,
    orderly_filter_oracle,
    scan_every_site_oracle,
)

# regression constants, frozen after brute-force dedup
DIAGRAM_COUNTS = {0: 1, 1: 1, 2: 4, 3: 22, 4: 218, 5: 3028, 6: 55540}
# diagrams with no decreasing FR1 or FR2 site
REDUCED_COUNTS = {0: 1, 1: 0, 2: 0, 3: 2, 4: 32, 5: 488, 6: 9522}
CLASS_COUNTS = {0: 1, 1: 0, 2: 0, 3: 2}
CLASSES_3 = (
    ("+1 +2 -1 -3 -2 +3", "-2t^1+t^2"),
    ("+1 +2 +3 -1 -3 -2", "2t^1-t^2"),
)
CATALOG_3 = (
    "flatcat v1 n=3 quotient=oriented\n"
    "class=1 code=+1 +2 -1 -3 -2 +3 cr=3 u=-2t^1+t^2 verdict=P orbit=1\n"
    "class=2 code=+1 +2 +3 -1 -3 -2 cr=3 u=2t^1-t^2 verdict=P orbit=1\n"
)
# sha256 of conftest.catalog_text(classify(n), n), frozen
CATALOG_SHA256 = {
    4: "dac092f6374daa99f9c2cb69da8ccf0bcd6546e944eb1d826f2ed1c7e77de85e",
    5: "095593c18057021d14c8d3f4b4e73e220d496d5ce98ec120aeafe3fa8e3ceb3d",
    6: "c935dc3d6158c709161992980afb55e7317e403f5ad4baa351a9eccc661ba06f",
}


def test_enumerate_zero_arrows():
    assert [d.word for d in enumerate_diagrams(0)] == [()]


def test_enumerate_one_arrow():
    assert [serialize(d) for d in enumerate_diagrams(1)] == ["+1 -1"]


@pytest.mark.parametrize("n,count", sorted(DIAGRAM_COUNTS.items()))
def test_enumerate_counts_frozen(n, count):
    assert sum(1 for _ in enumerate_diagrams(n)) == count


def _oracle_sorted(n):
    return sorted(enumerate_oracle(n), key=lambda d: canonical_sort_key(d.word))


@pytest.mark.parametrize("n", range(6))
def test_enumerate_matches_oracle(n):
    # the same diagrams as the generator that builds every pairing and
    # direction assignment, head-first ones included, in sort-key order
    assert list(enumerate_diagrams(n)) == _oracle_sorted(n)


@pytest.mark.parametrize("n,count", sorted(REDUCED_COUNTS.items()))
def test_enumerate_reduced_counts_frozen(n, count):
    assert sum(1 for _ in enumerate_diagrams(n, reduced=True)) == count


@pytest.mark.parametrize("n", range(6))
def test_enumerate_reduced_matches_oracle(n):
    # the oracle's diagrams with no decreasing site, in sort-key order
    want = [d for d in _oracle_sorted(n) if not enumerate_decreasing(d)]
    assert list(enumerate_diagrams(n, reduced=True)) == want


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("n", range(6))
def test_enumerate_yields_strictly_increasing_sort_keys(n, reduced):
    keys = [canonical_sort_key(d.word) for d in enumerate_diagrams(n, reduced=reduced)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("n", range(7))
def test_enumerate_matches_filter_oracle(n, reduced):
    # the generator without its leaf check, then the exact filters
    want = list(orderly_filter_oracle(n, reduced))
    assert [d.word for d in enumerate_diagrams(n, reduced=reduced)] == want


def _calls_of(monkeypatch, module, name):
    """Replace module.name by a spy; return the list of calls it saw."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("reduced", [False, True])
def test_enumerate_makes_no_canonical_or_site_call(reduced, monkeypatch):
    canonical = _calls_of(monkeypatch, diagram, "_canonical")
    sites = _calls_of(monkeypatch, moves, "_decreasing_sites")
    counts = REDUCED_COUNTS if reduced else DIAGRAM_COUNTS
    for n in range(6):
        assert sum(1 for _ in enumerate_diagrams(n, reduced=reduced)) == counts[n]
    assert canonical == [] and sites == []
    # the spies are live: the oracle's filters go through both
    assert len(list(orderly_filter_oracle(4, True))) == REDUCED_COUNTS[4]
    assert canonical and sites


@pytest.mark.parametrize(
    "n,reduced,built", [(5, False, 4184), (5, True, 920), (6, False, 77296), (6, True, 17600)]
)
def test_enumerate_builds_few_words(n, reduced, built, monkeypatch):
    # one _completes call per complete word built; at n = 5 every pairing
    # times every tail-first direction assignment would build 15,120 and,
    # skipping pairings with an adjacent chord, 4,688
    completes = _calls_of(monkeypatch, catalog, "_completes")
    counts = REDUCED_COUNTS if reduced else DIAGRAM_COUNTS
    assert sum(1 for _ in enumerate_diagrams(n, reduced=reduced)) == counts[n]
    assert len(completes) == built


def test_enumerate_emits_canonical_words_once():
    seen = set()
    for d in enumerate_diagrams(3):
        assert canonical_word(d.word) == d.word
        assert d.word not in seen
        seen.add(d.word)


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_diagrams(-1))


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None, 13])
def test_enumerate_rejects_n_that_is_not_an_arrow_count(n):
    with pytest.raises(ValueError) as info:
        next(enumerate_diagrams(n))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("reduced", ["no", 0.0, 1, None])
def test_enumerate_rejects_reduced_that_is_not_a_bool(reduced):
    # "no" once selected the reduced set and 0.0 the full one
    with pytest.raises(ValueError) as info:
        next(enumerate_diagrams(4, reduced=reduced))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
def test_class_counts_frozen(n, count):
    assert len(classify(n)) == count


def test_classify_zero_is_trivial_knot():
    (rec,) = classify(0)
    assert rec.code == "0" and rec.verdict == "T" and rec.cr == 0


def test_classify_three_frozen():
    records = classify(3)
    assert [(r.code, r.u_text) for r in records] == list(CLASSES_3)
    assert all(r.verdict == "P" for r in records)
    assert all(r.orbit_size == 1 for r in records)
    assert all(crossing_number(parse(r.code)) == parse(r.code).n for r in records)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_catalog_bytes_are_pinned(n, classified):
    text = catalog_text(classified(n), n)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CATALOG_SHA256[n]


def test_classify_leaves_the_reduction_memo_as_it_found_it(monkeypatch):
    monkeypatch.setattr(reduce, "_memo", {})
    records = classify(4)
    assert reduce._memo == {}
    # warm the memo with every class word and a diagram that reduces to one
    for rec in records:
        assert crossing_number(parse(rec.code)) == 4
    assert crossing_number(parse(records[0].code + " +5 -5")) == 4
    warmed = {budget: dict(memo) for budget, memo in reduce._memo.items()}
    assert len(warmed[reduce.DEFAULT_LIMITS.max_nodes]) > len(records)
    assert classify(4) == records
    assert reduce._memo == warmed


def test_class_soundness_exhaustive_at_three():
    records = classify(3)
    reps = [parse(r.code) for r in records]
    for d1, d2 in itertools.combinations(reps, 2):
        assert not equivalent(d1, d2)
    for rec in records:
        codes = fr3_orbit(parse(rec.code))
        for code in codes:
            assert equivalent(parse(code), parse(rec.code))


def test_u_constant_on_each_class_at_four():
    for rec in classify(4):
        codes = fr3_orbit(parse(rec.code))
        assert {str(u_polynomial(parse(c))) for c in codes} == {rec.u_text}


@pytest.mark.parametrize("n", [4, 5])
def test_each_record_names_its_class_by_the_least_orbit_code(n):
    for rec in classify(n):
        codes = fr3_orbit(parse(rec.code))
        assert (codes[0], len(codes)) == (rec.code, rec.orbit_size)


def test_class_soundness_sampled_at_four():
    records = classify(4)
    reps = [parse(r.code) for r in records]
    for d1, d2 in itertools.islice(itertools.combinations(reps, 2), 12):
        assert not equivalent(d1, d2)
    for rec in records[:4]:
        codes = fr3_orbit(parse(rec.code))
        for code in codes:
            assert equivalent(parse(code), parse(rec.code))


def test_catalog_file_round_trip(tmp_path):
    path = tmp_path / "three.flatcat"
    write_catalog(classify(3), str(path), 3)
    assert path.read_bytes() == CATALOG_3.encode("utf-8")


def test_catalog_empty_records(tmp_path):
    path = tmp_path / "one.flatcat"
    write_catalog([], str(path), 1)
    assert path.read_bytes() == b"flatcat v1 n=1 quotient=oriented\n"


def test_catalog_overwrite_leaves_no_temp_files(tmp_path):
    path = tmp_path / "keep.flatcat"
    write_catalog(classify(3), str(path), 3)
    write_catalog([], str(path), 5)
    assert path.read_text() == "flatcat v1 n=5 quotient=oriented\n"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.flatcat"]


@pytest.mark.parametrize("n", ["abc", True, -1, 13, 2.5])
def test_write_catalog_rejects_n_that_is_not_an_arrow_count(tmp_path, n):
    # each once wrote a file whose header read n=abc, n=True, n=-1 and so on
    path = tmp_path / "bad.flatcat"
    with pytest.raises(ValueError, match="^n must be ") as info:
        write_catalog([], str(path), n)
    assert "\n" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "item",
    [5, None, b"line\n", "class=1 code=+1 +2 -1 -3 -2 +3 cr=3 u=-2t^1+t^2 verdict=P orbit=1\n"],
    ids=["int", "none", "bytes", "str"],
)
def test_write_catalog_refuses_an_item_that_is_not_a_record_or_a_line(tmp_path, item):
    # an int raised AttributeError: 'int' object has no attribute 'class_id';
    # a str, even a catalog line, is refused like any item but a record
    path = tmp_path / "kept.flatcat"
    path.write_bytes(b"old bytes\n")
    for records in ([item], [classify(3)[0], item]):
        with pytest.raises(ValueError) as info:
            write_catalog(records, str(path), 3)
        assert str(info.value) == (
            f"a catalog item must be a CatalogRecord, not {type(item).__name__}"
        )
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]


def test_catalog_file_gets_the_mode_of_a_plain_open(tmp_path):
    """A new catalog file gets 0o666 less the umask, as `open(path, "w")`
    gives it; a replaced file keeps the mode it had."""
    fresh, kept, plain = (tmp_path / name for name in ("fresh", "kept", "plain"))
    kept.write_bytes(b"old bytes\n")
    kept.chmod(0o640)
    old_umask = os.umask(0o022)
    try:
        write_catalog(classify(3), str(fresh), 3)
        write_catalog(classify(3), str(kept), 3)
        plain.open("w").close()
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert fresh.read_bytes() == kept.read_bytes() == CATALOG_3.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "kept", "plain"]


@pytest.mark.parametrize("reduced", [False, True])
def test_generator_offsets_are_the_words_offsets(reduced):
    """`_orderly_words` sets an arrow's two partner offsets when it
    closes; every word it yields comes with `diagram._offsets` of it."""
    counts = REDUCED_COUNTS if reduced else DIAGRAM_COUNTS
    seen = 0
    for n in range(7):
        for word, back in catalog._orderly_words(n, reduced):
            assert back == diagram._offsets(word), word
            seen += 1
    assert seen == sum(counts[n] for n in range(7))


def test_classify_scans_skip_the_move_back_to_each_predecessor(monkeypatch, classified):
    """The scans of `classify(6)` make 1,742 `_canonical` calls.  Expanding
    every FR3 site of every node, as `scan_every_site_oracle` does, makes
    3,171 for the same records: 1,429 of them perform, on a node, the site
    of the move that discovered it, which leads back to its predecessor."""
    records = list(classified(6))
    calls = _calls_of(monkeypatch, reduce, "_canonical")
    assert classify(6) == records
    assert len(calls) == 1742
    every_site = _calls_of(monkeypatch, diagram, "_canonical")
    monkeypatch.setattr(
        catalog,
        "_scan_orbit",
        lambda start, back, max_nodes, find_decreasing: scan_every_site_oracle(
            start, max_nodes, find_decreasing
        ),
    )
    assert classify(6) == records
    assert len(every_site) == 3171 and len(calls) == 1742


def test_classify_never_canonicalizes_an_enumerated_word(monkeypatch, canonical_calls):
    """The generator builds only canonical words, so neither enumeration
    nor a scan canonicalizes a word it yields."""
    yielded = []
    orderly = catalog._orderly_words

    def recording(n, reduced):
        for word, back in orderly(n, reduced):
            yielded.append(word)
            yield word, back

    monkeypatch.setattr(catalog, "_orderly_words", recording)
    # the scans' own binding of _canonical goes through the spy too
    monkeypatch.setattr(reduce, "_canonical", diagram._canonical)
    assert len(classify(4)) == 26
    assert len(yielded) == 32
    assert [canonical_calls[id(w)] for w in yielded] == [0] * 32
    # the spy is live: the scans canonicalize the words they reach
    assert sum(canonical_calls.values()) > 0


def test_classify_never_checks_a_scan_start_for_a_decreasing_site(monkeypatch):
    """The generator builds only words with no decreasing site, and a
    scan checks only the words it discovers, so nobody checks a scan's
    start word."""
    in_filter, in_scans, starts = collections.Counter(), collections.Counter(), []
    sites, scan = moves._decreasing_sites, catalog._scan_orbit
    scanning_now = [False]

    def checking(word, back):
        (in_scans if scanning_now[0] else in_filter)[word] += 1
        return sites(word, back)

    def scanning(start, *args, **kwargs):
        starts.append(start)
        scanning_now[0] = True
        try:
            return scan(start, *args, **kwargs)
        finally:
            scanning_now[0] = False

    monkeypatch.setattr(moves, "_decreasing_sites", checking)
    monkeypatch.setattr(catalog, "_scan_orbit", scanning)
    assert len(classify(5)) == 400
    # 400 orbits with no decreasing site and 16 that stop at one
    assert len(starts) == 416
    assert [(in_filter[w], in_scans[w]) for w in starts] == [(0, 0)] * len(starts)
    assert sum(in_filter.values()) == 0 and sum(in_scans.values()) > 0


@pytest.mark.parametrize("n", range(6))
def test_classify_matches_the_oracle_that_keeps_every_reached_word(n, classified):
    # n = 6 is compared in test_classify_scans_the_oracles_orbits_at_six
    assert classified(n) == tuple(classify_oracle(n))


def test_classify_scans_the_oracles_orbits_at_six(monkeypatch, classified):
    """Keeping only the reached words still ahead skips exactly the words
    the oracle's set of every reached word skips, so the same orbits are
    scanned from the same starts, in the same order."""
    streamed = _calls_of(monkeypatch, catalog, "_scan_orbit")
    kept_all = _calls_of(monkeypatch, reduce, "_scan_orbit")
    records = classify(6)
    assert kept_all == []
    assert classify_oracle(6) == records == list(classified(6))
    # 8,079 scans: 7,825 minimal orbits and 254 that stop at a decreasing site
    assert len(streamed) == 8079 and len(records) == 7825
    assert [args[0] for args in streamed] == [args[0] for args in kept_all]


def test_records_stream_one_batch_of_words_at_a_time(monkeypatch):
    """`_records` takes `_BATCH` words from the generator at a time, so
    its first record comes after at most one batch of words, and after
    k records the generator has run at most one batch past the word of
    the k-th record: memory grows with one batch, not with the class
    count."""
    pulled = []
    orderly = catalog._orderly_words

    def counting(n, reduced):
        for word, back in orderly(n, reduced):
            pulled.append(word)
            yield word, back

    monkeypatch.setattr(catalog, "_orderly_words", counting)
    position = {}  # pulled word -> its 1-based place among the pulled words
    records = catalog._records(7, None)
    for k, rec in enumerate(itertools.islice(records, 3000), start=1):
        if k == 1:
            assert len(pulled) <= catalog._BATCH
        for i in range(len(position), len(pulled)):
            position[pulled[i]] = i + 1
        at = position[parse(rec.code).word]
        assert len(pulled) < at + catalog._BATCH
    assert k == 3000 and len(pulled) < 5000  # 220,810 words at n = 7
    records.close()


def test_a_budget_error_inside_a_batch_comes_from_the_same_scan():
    """A scan over budget raises from inside its batch, with the message
    of the first orbit over budget; a consumer that takes only the first
    k records gets the oracle's first k."""
    with pytest.raises(reduce.OrbitBudgetExceeded) as info:
        list(catalog._records(5, reduce.OrbitLimits(1)))
    assert str(info.value) == (
        "FR3 orbit of +1 +2 -1 -2 +3 +4 -3 +5 -4 -5 exceeds the 1-node budget "
        "(nodes explored: 1, expanded: 1)"
    )
    want = classify_oracle(6)
    for k in (1, 63, 64, 65, 200, 1000):
        assert list(itertools.islice(catalog._records(6, None), k)) == want[:k]
