import pytest

from tofscan.jsondoc import build, check, get, is_kind


@pytest.mark.parametrize("value, kind", [
    (True, "integer"), (False, "number"), (1.0, "integer"), ("1", "number"), (None, "object"),
    ([], "object"), ({}, "list"), (1, "string"),
])
def test_wrong_kind_is_named(value, kind):
    assert not is_kind(value, kind)
    got = "null" if value is None else type(value).__name__
    with pytest.raises(ValueError, match=rf"^doc\.key: expected {kind}, got {got}$"):
        check(value, "doc.key", kind)


@pytest.mark.parametrize("value, kind", [(0, "integer"), (0, "number"), (0.5, "number"),
                                         ("", "string"), ([], "list"), ({}, "object")])
def test_right_kind_is_returned(value, kind):
    assert is_kind(value, kind) and check(value, "doc", kind) is value


def test_list_items_are_named_by_index():
    assert check([1, 2.5], "doc.v", "list", "number") == [1, 2.5]
    with pytest.raises(ValueError, match=r"^doc\.v\[1\]: expected number, got bool$"):
        check([1, True], "doc.v", "list", "number")


def test_get_names_missing_key_and_takes_default():
    doc = {"a": 1}
    assert get(doc, "doc", "a", "integer") == 1
    assert get(doc, "doc", "b", "integer", default=None) is None
    with pytest.raises(ValueError, match=r"^doc: missing key 'b'$"):
        get(doc, "doc", "b", "integer")
    with pytest.raises(ValueError, match=r"^doc\.a: expected string, got int$"):
        get(doc, "doc", "a", "string", default="x")


def test_build_leads_a_constructor_error_with_the_path():
    assert build("doc", int, "3") == 3
    with pytest.raises(ValueError, match=r"^doc\[0\]: invalid literal"):
        build("doc[0]", int, "x")
