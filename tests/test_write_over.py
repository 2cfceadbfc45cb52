"""``hdiv_basis.write_over``, the one writer of every output file.

It writes over the old bytes of an existing file and cuts the file at the
end of what it wrote, also when a chunk raises.
"""

import hashlib
import os
import stat

import pytest

from polydiv.harness import cmd_element
from polydiv.hdiv_basis import write_over
from test_output_pins import ELEMENT_FILES, ELEMENT_PINS, _h


def test_a_longer_old_file_is_cut_to_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 10_000)
    write_over(path, [b"ab", b"", b"cde\r\n"])
    assert path.read_bytes() == b"abcde\r\n"


def test_a_shorter_old_file_is_overwritten_whole(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    write_over(path, iter([b"new ", b"bytes"]))
    assert path.read_bytes() == b"new bytes"


def test_no_chunk_leaves_an_empty_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes")
    write_over(path, [])
    assert path.read_bytes() == b""


def test_a_raising_chunk_leaves_the_chunks_written_before_it(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"z" * 100_000)

    def chunks():
        yield b"header\r\n"
        yield b"1,2\r\n" * 3000
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        write_over(path, chunks())
    assert path.read_bytes() == b"header\r\n" + b"1,2\r\n" * 3000


def test_a_new_file_gets_the_mode_of_open_for_writing(tmp_path):
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        write_over(tmp_path / "by_write_over", [b"data"])
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE(os.stat(tmp_path / "by_open").st_mode)
    assert mode == 0o640
    assert stat.S_IMODE(os.stat(tmp_path / "by_write_over").st_mode) == mode


def test_element_over_larger_junk_files_gives_the_pinned_bytes(tmp_path):
    case = next(c for c in ELEMENT_PINS if c[0] == "fig151")
    shape, space, config, k, h = case
    junk = b"junk\0" * 400_000
    for name in ELEMENT_FILES:
        (tmp_path / name).write_bytes(junk)
    cmd_element(shape, space, config, k, tmp_path, h=_h(shape, h))
    assert all((tmp_path / name).stat().st_size < len(junk) for name in ELEMENT_FILES)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ELEMENT_FILES} == ELEMENT_PINS[case]
