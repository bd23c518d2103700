"""Fixture: file access the atomic-write checker must leave alone."""

import json


def plain_read(path):
    with open(path) as handle:
        return json.load(handle)


def explicit_read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def binary_read(path):
    with open(path, "rb") as handle:
        return handle.read()


def dynamic_mode(path, mode):
    # Non-constant modes get the benefit of the doubt (flow-free pass).
    with open(path, mode) as handle:
        return handle.read()


def through_the_helper(path, payload):
    from repro.core.artifacts import write_atomic

    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


def durable_append(path, record):
    from repro.core.artifacts import DurableAppender

    with DurableAppender(path) as appender:
        appender.append_line(json.dumps(record, sort_keys=True))


def pathlib_read(path):
    from pathlib import Path

    return Path(path).read_text(encoding="utf-8")
