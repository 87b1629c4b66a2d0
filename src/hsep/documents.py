"""JSON documents: the one decoder for every file the workbench reads.

`loads` is `json.loads`, except that an object whose text repeats the
text of an earlier object exactly, character for character, is decoded
once: the repeat is the earlier object itself.  An adjunction document
carries each of its categories inline twice, so the second copy costs
one dict lookup on its text, and `fincat.adjunction_from_doc` knows it
by identity.  Copies that differ only in formatting are distinct objects.

Objects are read by json's own object parser, and every other value by
json's scanner, so the values are json's.  The repeats that are found
are objects that are member values or items of an array whose first item
is an object; an object inside any other array is decoded with that
array.  An earlier copy is found by the text up to its first "}", which
a repeat shares, and its length: one lookup for each length among the
earlier objects with that prefix, not a scan over them.  Malformed text,
and nesting too deep for this parser's recursion, are handed to
`json.loads`, so the error raised, or the value returned, is its own.
Nothing may mutate a decoded document: a change to one copy shows in
every copy that shares it.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, JSONArray, JSONObject

__all__ = ["loads", "load", "NotAnObject"]

_PREFIX = 64  # the most characters of an object's text that key its lookup


def loads(text):
    """The value of the JSON text, with repeated objects shared."""
    try:
        idx = WHITESPACE.match(text).end()
        if text.startswith("{", idx):  # the document, which cannot repeat
            value, end = _Decoder(text).members(idx)
        else:
            value, end = _Decoder(text).scan(text, idx)
        if WHITESPACE.match(text, end).end() == len(text):
            return value
    except (ValueError, StopIteration, RecursionError):
        pass
    return json.loads(text)


class _Decoder:
    """The state of one `loads`: json's scanner, the member names read,
    each object by its text, and the lengths of the objects by the text
    up to their first "}", at most _PREFIX characters of it.  Methods, not
    closures, so that nothing here outlives the call in a cycle."""

    def __init__(self, text):
        self.text = text
        self.value_at = json.JSONDecoder().scan_once  # every value but an object
        self.memo, self.seen, self.lengths = {}, {}, {}

    def scan(self, s, idx):
        """(value, end) of the value at idx, as json's scan_once."""
        if s.startswith("{", idx):
            return self.object(idx)
        if s.startswith("[", idx) and s.startswith("{", WHITESPACE.match(s, idx + 1).end()):
            return JSONArray((s, idx + 1), self.scan)
        return self.value_at(s, idx)

    def members(self, idx):
        """(object, end) of the object at idx, read by json's object parser."""
        return JSONObject((self.text, idx + 1), True, self.scan, None, None, self.memo)

    def object(self, idx):
        """(object, end) of the object at idx: an earlier object with the
        same text, or a new one."""
        s = self.text
        close = s.find("}", idx, idx + _PREFIX)
        prefix = s[idx : close + 1 if close >= 0 else idx + _PREFIX]
        for n in self.lengths.get(prefix, ()):
            value = self.seen.get(s[idx : idx + n])
            if value is not None:
                return value, idx + n
        value, end = self.members(idx)
        self.seen[s[idx:end]] = value
        self.lengths.setdefault(prefix, set()).add(end - idx)
        return value, end


class NotAnObject(ValueError):
    """A document file holds a JSON value that is not an object; the
    message names the file."""


def load(path):
    """The JSON object in the file at `path`.  A file that holds another
    JSON value raises NotAnObject."""
    with open(path) as fh:
        doc = loads(fh.read())
    if not isinstance(doc, dict):
        raise NotAnObject("%s: expected a JSON object, got %s" % (path, type(doc).__name__))
    return doc
