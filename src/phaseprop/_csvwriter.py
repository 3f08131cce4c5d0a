"""The text of a field dump, and the writer process that writes dumps.

:func:`write_rows` is the one formatter of ``write_field_csv``'s files.
Run as a script (``python -I -S _csvwriter.py``), this file is the CLI's
writer process.  It reads jobs from standard input until the input closes,
each the arguments of one :func:`write_rows` call as :mod:`marshal` data
(:func:`job_record`), and writes each file.  On the first failed write it
pickles the exception to standard output and exits, so the files on disk
are those that an in-process writer leaves, and the parent's next send
meets a closed pipe.  It imports only built-in modules, so the child
interpreter starts in about the time of a bare one; ``pickle``, which takes
as long again to import, is imported only to report a failure.
"""
import itertools
import marshal
import sys


def write_rows(path, names, axes, re, im):
    """Write the CSV of a field: the header ``names,re,im``, then one
    ``coordinates,re,im`` row per node in C order, every number printed
    with ``%.17g`` so that the text reads back to the same doubles.

    ``axes`` holds one list of floats per dimension; ``re`` and ``im`` are
    lists of the values' parts in C order."""
    # C order over the nodes is the order of itertools.product over the axes;
    # each axis value is formatted once, and the file is one %-format over the
    # nodes' coordinate strings and the values' re and im
    nodes = [",".join(node) for node in itertools.product(
        *(["%.17g" % a for a in axis] for axis in axes))]
    cells = [None] * (3 * len(nodes))
    cells[0::3], cells[1::3], cells[2::3] = nodes, re, im
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + ",re,im\n" + "%s,%.17g,%.17g\n" * len(nodes) % tuple(cells))


def job_record(job) -> bytes:
    """The bytes that send a :func:`write_rows` job to the writer process."""
    data = marshal.dumps(job)
    return len(data).to_bytes(8, "little") + data


def _serve(jobs, errors):
    """Write the job of each record on ``jobs`` until it ends, or until a
    write fails: then pickle the exception to ``errors`` and return.

    A record is the job's :mod:`marshal` bytes after their length, 8 bytes
    little-endian: ``marshal.load`` on a pipe would read each float by a
    call of its own."""
    while size := int.from_bytes(jobs.read(8), "little"):
        try:
            write_rows(*marshal.loads(jobs.read(size)))
        except Exception as exc:
            import pickle
            pickle.dump(exc, errors)
            return


if __name__ == "__main__":
    _serve(sys.stdin.buffer, sys.stdout.buffer)
