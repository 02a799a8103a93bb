"""The canonical-JSON writer behind ``textio.write_document`` and ``textio.document_text``.

It lives apart from ``textio``, which every command imports, so that only a
command that writes a document compiles and loads it, along with ``json``.
"""

from collections.abc import Iterator
from json import dumps
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

BATCH_CHARS = 1 << 14


def write_json(doc, write) -> None:
    """Pass ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to ``write`` in batches.

    Strings go through the escaper ``json`` uses and other scalars through
    ``json.dumps`` itself, so the bytes match; dict keys must be strings.  Any
    iterator is written as an array, so rows may come from a generator and
    are rendered only as they are written: memory holds one batch of about
    ``BATCH_CHARS`` characters, never the whole text or answer.  A function
    is an array too: called with the indent that starts each row (a newline
    and spaces), it yields the finished text of each row, whose inner lines
    start with that indent and two spaces more.  A big listing renders its
    own rows that way, from pieces it quoted once.
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
        elif isinstance(o, (list, tuple, Iterator)) or callable(o):
            inner = indent + "  "
            comma, sep = "," + inner, lead + "[" + inner
            texts = callable(o)
            for item in o(inner) if texts else o:
                if texts:
                    text = sep + item
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


def mask_rows(masks, names):
    """A row function (see ``write_json``) listing the names of each mask's bits, ascending.

    Per byte of the masks, a table holds the quoted names of every byte value
    already joined, each name led by the row separator, so a row is one
    lookup per byte.
    """

    def rows(indent: str) -> Iterator[str]:
        comma = "," + indent + "  "
        tables = []
        for low in range(0, len(names), 8):
            table = [""]
            for name in names[low : low + 8]:  # the new bit is the highest yet, so its name goes last
                piece = comma + quote(name)
                table += [text + piece for text in table]
            tables.append((low, table))
        tail = indent + "]"
        for mask in masks:
            text = "".join([table[mask >> low & 255] for low, table in tables])
            yield "[" + text[1:] + tail if text else "[]"

    return rows


def map_rows(maps, names):
    """A row function (see ``write_json``) writing each index tuple t as ``{names[i]: names[t[i]]}``.

    The keys are sorted and quoted once into a ``%`` template, so a row is
    one fill.
    """
    if len(names) < 2:  # itemgetter of one index returns a bare value, not a tuple
        return [{names[i]: names[j] for i, j in enumerate(t)} for t in maps]
    order = sorted(range(len(names)), key=names.__getitem__)
    quoted = [quote(name) for name in names]

    def rows(indent: str) -> Iterator[str]:
        inner, pick = indent + "  ", itemgetter(*order)
        keys = [quoted[i].replace("%", "%%") + ": %s" for i in order]
        text = "{" + inner + ("," + inner).join(keys) + indent + "}"
        for t in maps:
            yield text % itemgetter(*pick(t))(quoted)

    return rows
