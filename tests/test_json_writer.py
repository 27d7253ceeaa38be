"""The one JSON writer: `json.dumps(payload, sort_keys=True, indent=2)`,
byte for byte, in memory linear in its output."""

import json
import random
import tracemalloc

from presup import Context, infer_all, interpret, parse_discourse
from presup.derivations import dump_json, to_json_dicts

# Plain, escaped, control, non-ASCII and astral characters.
_CHARS = ("a", "Z", " ", "\\", '"', "/", "\n", "\t", "\x00", "\x1f", "\x7f")
_CHARS += ("é", "λ", "\u2028", "\U0001f600")


def _string(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(0, 6)))


def _payload(rng: random.Random, depth: int, shared: list):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(
            [_string(rng), rng.randrange(-1000, 1000), True, False, None, shared]
        )
    if roll < 0.45:
        return rng.choice([[], {}, [_string(rng) for _ in range(rng.randrange(1, 4))]])
    if roll < 0.7:
        return [_payload(rng, depth - 1, shared) for _ in range(rng.randrange(1, 4))]
    return {_string(rng): _payload(rng, depth - 1, shared) for _ in range(rng.randrange(1, 4))}


def test_writer_matches_json_dumps_on_random_payloads():
    rng = random.Random(9)
    for _ in range(300):
        # One list of strings, reachable at several depths.
        shared = [_string(rng) for _ in range(rng.randrange(1, 4))]
        payload = _payload(rng, rng.randrange(0, 6), shared)
        if rng.random() < 0.5:
            payload = [shared, payload, [[shared]], {"k": shared}]
        assert dump_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_writing_check_json_peaks_below_three_times_its_output(sig):
    # Caching the text of every container would hold each subtree once per
    # ancestor, depth times the output; only lists of strings are cached.
    meaning = interpret(parse_discourse("A man walked in. He sat down. " * 4))
    payload = to_json_dicts(infer_all(sig, Context(), meaning))
    tracemalloc.start()
    try:
        text = dump_json(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert peak < 3 * len(text)
