"""Shared fixtures."""

import errno

import pytest

from uapforge import tensor as T


class _HalfWriter:
    """A file whose first write stores half its data and then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def fail_writes(monkeypatch):
    """Call with a substring: uapforge.tensor's writes to files whose name holds it fail half-way."""

    def install(substring):
        def fake_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            return _HalfWriter(f) if "w" in mode and substring in str(file) else f

        monkeypatch.setattr(T, "open", fake_open, raising=False)

    return install
