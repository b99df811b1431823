"""File grammar: round-trips, line-numbered errors, negative paths."""

import pytest

from qdual import (builtin_module, cli, corpus_ring, parse_module,
                   parse_ring, serialize_module, serialize_ring)
from qdual.corpus import corpus_source
from qdual.errors import (ModuleValidationError, NotPrime, ParseError,
                          UnknownRing)


def test_ring_round_trip():
    for name in ("r1", "r2", "r3", "r4", "r5", "r6"):
        ring = corpus_ring(name)
        again = parse_ring(serialize_ring(ring))
        assert again.key == ring.key


def test_module_round_trip():
    ring = corpus_ring("r5")
    for name in ("R", "E", "k", "0"):
        mod = builtin_module(ring, name)
        text = serialize_module(mod)
        again = parse_module(text, {ring.name: ring})
        assert again.key == mod.key


def test_corpus_sources_parse():
    for name in ("r1", "r2", "r3", "r4", "r5", "r6"):
        assert parse_ring(corpus_source(name)).name == name


def test_p_equals_4_rejected():
    text = corpus_source("r3").replace("p = 2", "p = 4")
    with pytest.raises(NotPrime):
        parse_ring(text)


def test_parse_error_carries_line_number():
    text = "[ring]\nname = x\np = two\ndim = 1\nunit = 1\nmul 0 0 = 1\n"
    with pytest.raises(ParseError) as info:
        parse_ring(text)
    assert info.value.line is not None
    assert "line" in str(info.value)


RING_TEXT = "[ring]\nname = x\np = 2\ndim = 1\nunit = 1\nmul 0 0 = 1\n"
MODULE_TEXT = "[module]\nname = k\nring = r3\ndim = 1\nact 0 = 1\nact 1 = 0\n"


@pytest.mark.parametrize("old,new,message,lineno", [
    ("p = 2", "p = two", "p must be an integer", 3),
    ("dim = 1", "dim = x", "dim must be an integer", 4),
    ("dim = 1", "dim = -1", "dim must be at least 0", 4),
    ("dim = 1", "dim = -3", "dim must be at least 0", 4)])
def test_ring_field_errors_name_the_field_line(old, new, message, lineno):
    with pytest.raises(ParseError) as info:
        parse_ring(RING_TEXT.replace(old, new))
    assert info.value.line == lineno
    assert str(info.value) == "line %d: %s" % (lineno, message)


@pytest.mark.parametrize("new,message", [
    ("dim = y", "dim must be an integer"),
    ("dim = -2", "dim must be at least 0")])
def test_module_dim_errors_name_the_dim_line(new, message):
    with pytest.raises(ParseError) as info:
        parse_module(MODULE_TEXT.replace("dim = 1", new),
                     {"r3": corpus_ring("r3")})
    assert str(info.value) == "line 4: %s" % message


def test_missing_mul_line_rejected():
    text = "[ring]\nname = x\np = 2\ndim = 2\nunit = 1 0\nmul 0 0 = 1 0\n" \
           "mul 0 1 = 0 1\n"
    with pytest.raises(ParseError):
        parse_ring(text)


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + corpus_source("r3") + "\n# trailing\n"
    assert parse_ring(text).name == "r3"


def test_module_with_bad_action_rejected_with_witness():
    ring = corpus_ring("r3")
    text = """
[module]
name = bad
ring = r3
dim = 2
act 0 = 1 0 / 0 1
act 1 = 0 1 / 1 0
"""
    with pytest.raises(ModuleValidationError) as info:
        parse_module(text, {"r3": ring})
    assert info.value.witness is not None


def test_module_unknown_ring():
    with pytest.raises(UnknownRing):
        parse_module("[module]\nname = m\nring = nope\ndim = 0\n", {})


def test_zero_module_file():
    ring = corpus_ring("r3")
    text = "[module]\nname = z\nring = r3\ndim = 0\nact 0 =\nact 1 =\n"
    mod = parse_module(text, {"r3": ring})
    assert mod.dim == 0


def _appended(text, line):
    """text plus one line, and that line's number."""
    text = text.rstrip("\n") + "\n"
    return text + line + "\n", len(text.splitlines()) + 1


@pytest.mark.parametrize("line", [
    "mul 1 1 = 1 1",    # a second x^2 = 1 + x would make r3 the field F_4
    "mul 1 0 = 1 0",    # contradicts 'mul 0 1', so the table is not symmetric
])
def test_repeated_or_transposed_mul_line_rejected(tmp_path, capsys, line):
    text, lineno = _appended(corpus_source("r3"), line)
    with pytest.raises(ParseError) as info:
        parse_ring(text)
    assert info.value.line == lineno
    path = tmp_path / "ring.txt"
    path.write_text(text)
    assert cli.main(["check-ring", str(path)]) == 2
    assert "line %d:" % lineno in capsys.readouterr().err


@pytest.mark.parametrize("word", ["mulx", "multiply", "mul0"])
def test_ring_key_extending_mul_is_an_unknown_field(word):
    text = RING_TEXT.replace("mul 0 0", word + " 0 0")
    with pytest.raises(ParseError) as info:
        parse_ring(text)
    assert info.value.line == 6
    assert str(info.value) == "line 6: unknown field '%s 0 0'" % word


@pytest.mark.parametrize("word", ["actor", "action", "acts"])
def test_module_key_extending_act_is_an_unknown_field(word):
    text = MODULE_TEXT.replace("act 1", word + " 1")
    with pytest.raises(ParseError) as info:
        parse_module(text, {"r3": corpus_ring("r3")})
    assert info.value.line == 6
    assert str(info.value) == "line 6: unknown field '%s 1'" % word


def test_repeated_act_line_rejected():
    ring = corpus_ring("r3")
    text, lineno = _appended(
        "[module]\nname = z\nring = r3\ndim = 0\nact 0 =\nact 1 =\n",
        "act 1 =")
    with pytest.raises(ParseError) as info:
        parse_module(text, {"r3": ring})
    assert info.value.line == lineno


@pytest.mark.parametrize("line", ["act 3 = 1 0 0 / 0 1 0 / 0 0 1",
                                  "act -1 = 5"])
def test_out_of_range_act_line_rejected(line):
    ring = corpus_ring("r5")
    text, lineno = _appended(serialize_module(builtin_module(ring, "R")),
                             line)
    with pytest.raises(ParseError, match="act index out of range") as info:
        parse_module(text, {"r5": ring})
    assert info.value.line == lineno


def test_huge_dim_rejected_before_allocating(tmp_path):
    # a dim^3 table would need 2^66 bytes; the missing 'mul 0 1' line is
    # reported first
    dim = 1 << 21
    zeros = " 0" * (dim - 1)
    path = tmp_path / "huge.txt"
    path.write_text("[ring]\nname = huge\np = 2\ndim = %d\nunit = 1%s\n"
                    "mul 0 0 = 1%s\n" % (dim, zeros, zeros))
    assert cli.main(["check-ring", str(path)]) == 2


@pytest.mark.parametrize("old,new", [
    ("mul 0 0 = 1 0", "mul 0 0 = %d 0" % 10 ** 30),
    ("unit = 1 0", "unit = %d 0" % (2 ** 63 + 1)),
    ("mul 1 1 = 0 0", "mul 1 1 = 0 %d" % -(2 ** 63 + 1))],
    ids=["mul", "unit", "negative"])
def test_ring_integers_beyond_64_bits_rejected(old, new):
    text = corpus_source("r3")
    lineno = text.splitlines().index(old) + 1
    with pytest.raises(ParseError, match="must fit in 64 bits") as info:
        parse_ring(text.replace(old, new))
    assert info.value.line == lineno


@pytest.mark.parametrize("entry", [10 ** 30, -10 ** 30, 2 ** 63])
def test_module_integers_beyond_64_bits_rejected(entry):
    ring = corpus_ring("r3")
    text = "[module]\nname = k\nring = r3\ndim = 1\nact 0 = 1\nact 1 = %d\n"
    with pytest.raises(ParseError, match="must fit in 64 bits") as info:
        parse_module(text % entry, {"r3": ring})
    assert info.value.line == 6


def test_64_bit_extremes_are_reduced_mod_p():
    ring = corpus_ring("r3")
    text = "[module]\nname = k\nring = r3\ndim = 1\nact 0 = %d\nact 1 = %d\n"
    module = parse_module(text % (2 ** 63 - 1, -2 ** 63), {"r3": ring})
    assert module.key == builtin_module(ring, "k").key
