import pytest

from d2kit.presentations import (
    MAX_RELATOR_LETTERS,
    EmptyGeneratorList,
    ParseError,
    Presentation,
    UnknownGenerator,
    abelianization,
    deficiency,
    is_perfect,
    parse_presentation,
    serialize_presentation,
)
from d2kit.words import Word

A5_TEXT = "gens: a b\nrels: a^2 b^3 (a b)^5\n"
TREFOIL_TEXT = "gens: x y\nrels: (x^2 y^-3)\n"


def test_parse_a5_preset():
    P = parse_presentation(A5_TEXT)
    assert P.generators == ("a", "b")
    assert P.num_relators == 3
    # third relator expands to ababababab
    assert P.relators[2] == Word([(0, 1), (1, 1)] * 5)


def test_parse_free_reduction():
    P = parse_presentation("gens: x\nrels: (x x^-1)\n")
    assert P.num_relators == 1
    assert P.relators[0].is_identity()


def test_parse_trefoil():
    P = parse_presentation(TREFOIL_TEXT)
    assert P.num_relators == 1
    assert P.relators[0] == Word([(0, 1), (0, 1), (1, -1), (1, -1), (1, -1)])
    # compact no-whitespace spelling parses identically
    assert parse_presentation("gens: x y\nrels: x^2y^-3\n") == P


def test_parse_comments_blanks_multiline():
    text = "# a comment\ngens: x y\n\nrels: x^2   # trailing\nrels: y^3\n"
    P = parse_presentation(text)
    assert P.num_relators == 2


def test_parse_unicode_minus():
    P = parse_presentation("gens: x\nrels: x^−2\n")
    assert P.relators[0] == Word([(0, -1), (0, -1)])


def test_parse_nested_parens_and_powers():
    P = parse_presentation("gens: a b\nrels: ((a b)^2 a)^2\n")
    inner = Word([(0, 1), (1, 1), (0, 1), (1, 1), (0, 1)])
    assert P.relators[0] == inner * inner


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("rels: x\n")
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens: x\nrels: y\n")
    with pytest.raises(ParseError):
        parse_presentation("gens: x\nrels: (x\n")
    with pytest.raises(ParseError):
        parse_presentation("gens: x\nrels: x^\n")
    with pytest.raises(ParseError):
        parse_presentation("gens: x\nrels: x$2\n")
    with pytest.raises(EmptyGeneratorList):
        parse_presentation("gens:\nrels: ()\n")
    err = None
    try:
        parse_presentation("gens: x\nrels: y\n")
    except UnknownGenerator as e:
        err = e
    assert err.line == 2 and err.col is not None


@pytest.mark.parametrize("text, message", [
    ("gens: a a\n", "duplicate generator 'a' (line 1, column 9)"),
    ("gens: a 1b\n", "bad generator name '1b' (line 1, column 9)"),
    ("gens: x\nrels: x^\n", "expected integer exponent (line 2, column 9)"),
    ("gens: x\nrels: x^^2\n", "expected integer exponent (line 2, column 9)"),
    ("  gens:  b a b\n", "duplicate generator 'b' (line 1, column 14)"),
], ids=["duplicate", "bad-name", "exponent-at-end", "exponent-caret", "indented"])
def test_parse_error_columns(text, message):
    # the 1-based column of the offending name; a missing exponent at the
    # end of the input is reported just past its caret
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert str(info.value) == message
    assert info.value.col is not None and "None" not in str(info.value)


@pytest.mark.parametrize("text, message, col", [
    ("gens: x\nrels: x^100001\n", "power longer than 100000 letters", 9),
    ("gens: x\nrels: (x^1000)^1000\n", "power longer than 100000 letters", 16),
    ("gens: x y\nrels: x^2 (x^60000 y^60000)\n",
     "relator longer than 100000 letters", 20),
    ("gens: x\nrels: x^" + "9" * 5000 + "\n", "exponent too large", 9),
], ids=["power", "nested-power", "running-length", "huge-exponent"])
def test_parse_relator_length_cap(text, message, col):
    with pytest.raises(ParseError, match=message) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.col) == (2, col)


def test_parse_relator_length_cap_is_inclusive():
    P = parse_presentation(f"gens: x y\nrels: x^{MAX_RELATOR_LETTERS} "
                           "(x y)^50000 (x x^-1)^99999999\n")
    assert [len(r) for r in P.relators] == [MAX_RELATOR_LETTERS, 100000, 0]


def test_trivial_presentations_legal():
    P = parse_presentation("gens:\nrels:\n")
    assert P.num_generators == 0 and P.num_relators == 0
    Z = parse_presentation("gens: x\nrels:\n")
    assert Z.num_relators == 0
    # a rels: line may be absent entirely
    assert parse_presentation("gens: x\n") == Z


def test_serialize_round_trip():
    for text in [A5_TEXT, TREFOIL_TEXT, "gens:\nrels:\n", "gens: x\nrels:\n",
                 "gens: x\nrels: (x x^-1)\n", "gens: a b c\nrels: (a b^-2 c) a^5\n"]:
        P = parse_presentation(text)
        assert parse_presentation(serialize_presentation(P)) == P


def test_serialize_multichar_names_round_trip():
    P = Presentation(("ab", "b"), (Word([(0, 1), (1, 1)]),))
    Q = parse_presentation(serialize_presentation(P))
    assert Q == P


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("1x",), ())
    with pytest.raises(ValueError):
        Presentation(("x",), (Word([(1, 1)]),))


def test_abelianization_trefoil():
    P = parse_presentation(TREFOIL_TEXT)
    res = abelianization(P)
    assert res.matrix.to_rows() == [[2, -3]]
    assert res.snf.diagonal() == (1,)
    assert res.invariant_factors.free_rank == 1
    assert res.invariant_factors.torsion == ()
    assert str(res.invariant_factors) == "Z"


def test_abelianization_a5():
    P = parse_presentation(A5_TEXT)
    res = abelianization(P)
    assert res.matrix.to_rows() == [[2, 0], [0, 3], [5, 5]]
    assert res.invariant_factors.is_trivial()
    assert str(res.invariant_factors) == "0"


def test_abelianization_free_group():
    P = parse_presentation("gens: x y\nrels:\n")
    res = abelianization(P)
    assert res.matrix.rows == 0
    assert str(res.invariant_factors) == "Z^2"


def test_abelianization_s3_q8():
    s3 = parse_presentation("gens: a b\nrels: a^2 b^2 (a b)^3\n")
    assert str(abelianization(s3).invariant_factors) == "Z/2"
    q8 = parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n")
    assert str(abelianization(q8).invariant_factors) == "Z/2 + Z/2"


def test_is_perfect():
    assert is_perfect(parse_presentation(A5_TEXT))
    assert not is_perfect(parse_presentation(TREFOIL_TEXT))
    assert is_perfect(parse_presentation("gens:\nrels:\n"))


def test_deficiency():
    assert deficiency(parse_presentation(TREFOIL_TEXT)) == 1
    assert deficiency(parse_presentation(A5_TEXT)) == -1
    assert deficiency(parse_presentation("gens: x\nrels:\n")) == 1


def test_serialize_round_trip_random():
    import random

    from d2kit.words import Word

    rng = random.Random(77)
    names = ["a", "b2", "xy", "c_d", "z"]
    for _ in range(200):
        d = rng.randint(0, 5)
        gens = tuple(names[:d])
        rels = []
        for _ in range(rng.randint(0, 4)):
            rels.append(Word([(rng.randrange(d), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 6))]) if d else Word())
        if not d and rels:
            continue
        P = Presentation(gens, tuple(rels))
        assert parse_presentation(serialize_presentation(P)) == P
