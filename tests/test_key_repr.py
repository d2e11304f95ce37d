"""No dataclass that carries AES key material prints it in its repr."""

from repro.crypto.keyschedule import expand_key
from repro.service.server import ServiceConfig

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def test_reprs_hide_key_and_schedule():
    schedule = expand_key(KEY)
    reprs = [
        repr(schedule),
        repr(ServiceConfig(key=KEY)),
    ]
    # Words 0-3 of the schedule are the key itself; a tuple field
    # prints them in decimal, a bytes field prints repr(KEY).
    words = set(schedule.words) | set(schedule.dec_words)
    needles = [KEY.hex(), repr(KEY)]
    needles += [str(w) for w in words] + [f"{w:08x}" for w in words]
    for text in reprs:
        for needle in needles:
            assert needle not in text, (text, needle)
