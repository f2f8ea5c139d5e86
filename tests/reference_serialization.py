"""
Reading JSON-lines output back, for the tests: one ``dict`` per non-blank
line of the bytes ``serialization.emit_jsonl`` writes.
"""

import json


def parse_jsonl(data: bytes) -> list[dict]:
    return [
        json.loads(line)
        for line in data.decode("utf-8").splitlines()
        if line.strip()
    ]
