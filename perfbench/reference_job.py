"""A fixed job that measures the machine's speed; it runs no retnet code.

It starts the interpreter and imports the modules the retnet CLI imports
from outside retnet, which every CLI command does before its own work.
``run.py`` times it in a fresh process next to each no-work invocation.
"""

import collections  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401
import io  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401
import re  # noqa: F401
import typing  # noqa: F401

import click  # noqa: F401
import mpmath  # noqa: F401
