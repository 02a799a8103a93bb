"""The canonical-JSON writer behind ``textio.write_document`` and ``textio.document_text``.

It lives apart from ``textio``, which every command imports, so that only a
command that writes a document compiles and loads it, along with ``json``.
"""

from collections.abc import Iterator
from json import dumps
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

BATCH_CHARS = 1 << 14


def _scalar(o) -> str:
    return repr(o) if o.__class__ is int else quote(o)


def _template(row, indent: str):
    """A filler of rows like ``row`` (a string, int, list of strings or dict of these), or None.

    The filler gives the text of a row whose inner lines start with
    ``indent + "  "``, and raises ``TypeError`` or ``KeyError`` on a row of
    another shape.  A dict's keys are sorted and quoted once into a ``%``
    template.
    """
    inner = indent + "  "
    if row.__class__ is list and all(isinstance(s, str) for s in row):
        head, comma, tail = "[" + inner, "," + inner, indent + "]"
        return lambda o: head + comma.join(map(quote, o)) + tail if list.__len__(o) else "[]"
    if row.__class__ is not dict or not row:
        return quote if isinstance(row, str) else _scalar if row.__class__ is int else None
    keys = sorted(row)
    fills = [_template(row[k], inner) for k in keys]
    text = "{" + inner + ("," + inner).join(quote(k).replace("%", "%%") + ": %s" for k in keys) + indent + "}"
    plain = fills.count(quote) == len(keys)
    # itemgetter of a single key returns the bare value, not a 1-tuple
    get = itemgetter(*keys) if len(keys) > 1 else lambda o: (o[keys[0]],)

    def fill(o) -> str:
        if o.__class__ is not dict or len(o) != len(keys):
            raise TypeError
        values = get(o)
        return text % tuple(map(quote, values) if plain else [f(v) for f, v in zip(fills, values)])

    return None if None in fills else fill


def write_json(doc, write) -> None:
    """Pass ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to ``write`` in batches.

    Strings go through the escaper ``json`` uses and other scalars through
    ``json.dumps`` itself, so the bytes match; dict keys must be strings.  Any
    iterator is written as an array, so rows may come from a generator and
    are rendered only as they are written: memory holds one batch of about
    ``BATCH_CHARS`` characters, never the whole text or answer.  An array's
    first row gives a filler for the later rows of its shape; any other row
    takes the key-by-key path.
    """
    parts: list[str] = []
    append = parts.append
    size = 0

    def value(o, lead: str, indent: str) -> None:
        """Append ``lead`` and the text of ``o``, whose inner lines start with ``indent``."""
        nonlocal size
        if isinstance(o, str):
            text = lead + quote(o)
        elif o.__class__ is int:
            text = lead + repr(o)
        elif isinstance(o, dict):
            inner = indent + "  "
            comma, sep = "," + inner, lead + "{" + inner
            for k, v in sorted(o.items()):
                value(v, sep + quote(k) + ": ", inner)
                sep = comma
            text = indent + "}" if sep is comma else lead + "{}"
        elif isinstance(o, (list, tuple, Iterator)):
            inner = indent + "  "
            comma, sep = "," + inner, lead + "[" + inner
            fill = None  # built from the first row; False when that row has no template shape
            for item in o:
                if fill is None:
                    fill = _template(item, inner) or False
                try:
                    text = fill and sep + fill(item)
                except (TypeError, KeyError):
                    text = ""
                if text:
                    size += len(text)
                    append(text)
                else:
                    value(item, sep, inner)
                sep = comma
                if size >= BATCH_CHARS:
                    write("".join(parts))
                    parts.clear()
                    size = 0
            text = indent + "]" if sep is comma else lead + "[]"
        else:
            text = lead + dumps(o)
        size += len(text)
        append(text)

    value(doc, "", "\n")
    append("\n")
    write("".join(parts))
