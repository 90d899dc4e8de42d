"""Fuzzed batch and coefficient files: each loader returns or raises
ConfigError, within a deadline, whatever bytes or header fields it is given.
A batch file is also run through the pass reconstruct makes over it, its
records streamed through every consumer an admm+em run feeds.

The files are small valid ones with every bytes-level defect a damaged or
hand-edited file can carry: truncation, trailing bytes, overwritten bytes
(header line included) and header fields replaced by other JSON values or
removed.  Examples are derandomized, so every run checks the same ones.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrec.basis import FBCoeffs, build_basis_spec, build_quadrature
from tiltrec.cli import _file_statistics, load_coeff_file, save_coeff_file
from tiltrec.errors import ConfigError
from tiltrec.sim import (BatchFile, TiltSeriesBatch, ViewDistribution,
                         build_line_grid, load_batch, save_batch)

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.sampled_from([0, 1, 2**31, 10**9, 2**62, 2**64, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 4e4, 1e308]),
    st.text(max_size=4), st.lists(st.integers(), max_size=3))
_REMOVED = object()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """{kind: (loader, file bytes, scratch path)} for one valid file each."""
    tmp = tmp_path_factory.mktemp("fuzz")
    spec = build_basis_spec(0.3, 4.0)
    save_coeff_file(tmp / "coeff.dat", FBCoeffs(
        np.linspace(1, 2, spec.n_a) + 0.5j, spec, real_symmetric=False),
        ViewDistribution(np.full(4, 0.25), 4), meta={"kind": "truth"})
    save_batch(TiltSeriesBatch(
        samples=np.linspace(-1, 1, 3 * 3 * 4).reshape(3, 3, 4), K=1,
        alpha=0.05, sigma2=0.1, grid=build_line_grid(4), seed=0, n_theta=6,
        hidden_angles=np.arange(3)), tmp / "batch.dat")
    quad = build_quadrature(spec.c, 12)

    def reconstruct_pass(path):
        # finite samples near the float limit overflow the sums to inf
        with contextlib.closing(BatchFile(path)) as batch, \
                np.errstate(over="ignore", invalid="ignore"):
            _file_statistics(batch, ["admm+em"], quad, spec)

    return {kind: (load, (tmp / f"{name}.dat").read_bytes(),
                   tmp / f"{kind}_fuzzed.dat")
            for kind, name, load in (
                ("coeff", "coeff", load_coeff_file),
                ("batch", "batch", load_batch),
                ("batch_stream", "batch", reconstruct_pass))}


def _mutate(data, blob):
    """blob truncated, extended, overwritten, or with one header field
    replaced or removed, as drawn from data."""
    how = data.draw(st.sampled_from(["truncate", "extend", "overwrite",
                                     "field"]))
    if how == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if how == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=64))
    if how == "overwrite":
        at = data.draw(st.integers(0, len(blob) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=16))
        return blob[:at] + patch + blob[at + len(patch):]
    head, payload = blob.split(b"\n", 1)
    header = json.loads(head)
    key = data.draw(st.sampled_from(sorted(header)))
    value = data.draw(st.one_of(st.just(_REMOVED), _JSON_VALUES))
    if value is _REMOVED:
        del header[key]
    else:
        header[key] = value
    return json.dumps(header).encode() + b"\n" + payload


@pytest.mark.parametrize("kind", ["coeff", "batch", "batch_stream"])
@settings(max_examples=150, derandomize=True, database=None, deadline=2000)
@given(data=st.data())
def test_loader_returns_or_raises_config_error(valid_files, kind, data):
    load, blob, path = valid_files[kind]
    path.write_bytes(_mutate(data, blob))
    try:
        load(path)
    except ConfigError:
        pass
