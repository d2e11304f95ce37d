"""Passing fixture: only documented span names."""


def run(tr, data):
    with tr.span("compress", bytes_in=data.nbytes):
        with tr.span("quantize"):
            pass
