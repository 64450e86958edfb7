"""Work of a call as the number of Python lines it runs, callees included.

A count does not depend on the speed of the host or on what else runs
there, so a scaling test can compare two sizes by it without noise.
Work done in C, such as a regular expression match, is not counted.
"""
import sys


def lines_run(fn, *args):
    """The Python lines that fn(*args) runs, and its result."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return count, result
