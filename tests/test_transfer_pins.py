"""Pinned conditionings and the two readers of the DOF weights.

The table holds cond2 and the degenerated count of every configuration on
``fig151`` and ``fig165`` at h = diameter/16, spaces classical, reduced and
reduced-natural, k = 1 and 2, as ``run_condstudy`` reports them (projector
codes 3/3, constructor codes 1/2).  cond2 is compared with the tolerance of
the benchmark (relative 1e-9 + 1e-13 cond2); the degenerated count must
match exactly.

For the same configurations, and for fig165 classical at k = 4, the
transfer matrix assembled from the moments of the DOF weights against the
field bank must equal a reference computed here from the same weights: the
functions' exact traces or interior values at each DOF's sample points,
dotted with its weights.  The interior reference reads the bank's table of
values at the rule points and the family's kernels there, and the assembly
meets U with the load vectors of those kernels: the same sums by two
routes.  These cases take the Hermite kernels (inner projector 3); fig165
classical IIb at k = 2 and 4 also takes every other family, and fig151
classical IIb at k = 6 the uncentred one (inner projector 7), whose
kernels x^l y^m are small near the axes: a route that builds them from
functions that are not (a hull-centred reference, say) loses digits there.
Each row must agree to 1e-14 of the size of its summands.
"""

import functools
import math

import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.elements import CONFIG_NAMES, ElementConfig, _dof_set_unchecked, assemble_transfer
from polydiv.harness import StudyConfig, _space_kind, run_condstudy
from polydiv.hdiv_basis import canonical_basis
from polydiv.poisson import triangulate
from polydiv.polyfam import PolyFamily, inner_poly

H_DIVISOR = 16
SPACES = ("classical", "reduced", "reduced-natural")

# (shape, space, k, config, cond2 or "SINGULAR", degenerated)
PINNED = [
    ('fig151', 'classical', 1, 'Ia', '24993.478002184012', 3),
    ('fig151', 'classical', 1, 'Ib', '28510.991980659495', 3),
    ('fig151', 'classical', 1, 'IbShifted', '253677.00510875767', 0),
    ('fig151', 'classical', 1, 'IIa', '55965.356533096965', 6),
    ('fig151', 'classical', 1, 'IIb', '49518.02684847935', 6),
    ('fig151', 'classical', 1, 'IIbShifted', '1091118.329575947', 0),
    ('fig151', 'classical', 2, 'Ia', '322058.52839648345', 3),
    ('fig151', 'classical', 2, 'Ib', '261635.77952465345', 3),
    ('fig151', 'classical', 2, 'IbShifted', '346660.7229604679', 0),
    ('fig151', 'classical', 2, 'IIa', '2138441.8988584154', 6),
    ('fig151', 'classical', 2, 'IIb', '2129869.266067556', 6),
    ('fig151', 'classical', 2, 'IIbShifted', '1177050.7343705706', 0),
    ('fig151', 'reduced', 1, 'Ia', '9264.409909716473', 0),
    ('fig151', 'reduced', 1, 'Ib', '9264.409909716473', 0),
    ('fig151', 'reduced', 1, 'IbShifted', '9264.409909716473', 0),
    ('fig151', 'reduced', 1, 'IIa', '2428.854024859715', 0),
    ('fig151', 'reduced', 1, 'IIb', '2011.5241767471987', 0),
    ('fig151', 'reduced', 1, 'IIbShifted', '5453.0913880170065', 0),
    ('fig151', 'reduced', 2, 'Ia', '1383500.9019916465', 0),
    ('fig151', 'reduced', 2, 'Ib', '1383500.9019916465', 0),
    ('fig151', 'reduced', 2, 'IbShifted', '1383500.9019916465', 0),
    ('fig151', 'reduced', 2, 'IIa', '42306.354517044325', 0),
    ('fig151', 'reduced', 2, 'IIb', '31978.288408134893', 0),
    ('fig151', 'reduced', 2, 'IIbShifted', '551579.1321084255', 0),
    ('fig151', 'reduced-natural', 1, 'Ia', '26249.59483081664', 0),
    ('fig151', 'reduced-natural', 1, 'Ib', '26249.59483081664', 0),
    ('fig151', 'reduced-natural', 1, 'IbShifted', '26249.59483081664', 0),
    ('fig151', 'reduced-natural', 1, 'IIa', '4204.407109743516', 0),
    ('fig151', 'reduced-natural', 1, 'IIb', '3782.325489630699', 0),
    ('fig151', 'reduced-natural', 1, 'IIbShifted', '10721.632648305835', 0),
    ('fig151', 'reduced-natural', 2, 'Ia', '568210.4554857877', 0),
    ('fig151', 'reduced-natural', 2, 'Ib', '568210.4554857877', 0),
    ('fig151', 'reduced-natural', 2, 'IbShifted', '568210.4554857877', 0),
    ('fig151', 'reduced-natural', 2, 'IIa', '76149.47658710094', 0),
    ('fig151', 'reduced-natural', 2, 'IIb', '60825.20860403902', 0),
    ('fig151', 'reduced-natural', 2, 'IIbShifted', '6739121.377871928', 0),
    ('fig165', 'classical', 1, 'Ia', '129135.9849793567', 6),
    ('fig165', 'classical', 1, 'Ib', '273625.8322539647', 6),
    ('fig165', 'classical', 1, 'IbShifted', '1964024.2182370187', 0),
    ('fig165', 'classical', 1, 'IIa', '652101.2855932523', 12),
    ('fig165', 'classical', 1, 'IIb', '1657340.7531237425', 12),
    ('fig165', 'classical', 1, 'IIbShifted', '6556014.588957324', 0),
    ('fig165', 'classical', 2, 'Ia', '5510024.0303913485', 6),
    ('fig165', 'classical', 2, 'Ib', '5302158.553084805', 6),
    ('fig165', 'classical', 2, 'IbShifted', '14969603.261163885', 0),
    ('fig165', 'classical', 2, 'IIa', '28440691.233441208', 12),
    ('fig165', 'classical', 2, 'IIb', '28393023.23350241', 12),
    ('fig165', 'classical', 2, 'IIbShifted', '41892960.33056278', 0),
    ('fig165', 'reduced', 1, 'Ia', '30621.548731287738', 0),
    ('fig165', 'reduced', 1, 'Ib', '30621.548731287738', 0),
    ('fig165', 'reduced', 1, 'IbShifted', '30621.548731287738', 0),
    ('fig165', 'reduced', 1, 'IIa', '7007.394795380609', 0),
    ('fig165', 'reduced', 1, 'IIb', '17156.550166018085', 0),
    ('fig165', 'reduced', 1, 'IIbShifted', '46117.99053439654', 0),
    ('fig165', 'reduced', 2, 'Ia', '1989139.2280879158', 0),
    ('fig165', 'reduced', 2, 'Ib', '1989139.2280879158', 0),
    ('fig165', 'reduced', 2, 'IbShifted', '1989139.2280879158', 0),
    ('fig165', 'reduced', 2, 'IIa', '467250.3382872723', 0),
    ('fig165', 'reduced', 2, 'IIb', '459921.92069919576', 0),
    ('fig165', 'reduced', 2, 'IIbShifted', '59394917.37230209', 0),
    ('fig165', 'reduced-natural', 1, 'Ia', '1030951.3098182682', 0),
    ('fig165', 'reduced-natural', 1, 'Ib', '1030951.3098182682', 0),
    ('fig165', 'reduced-natural', 1, 'IbShifted', '1030951.3098182682', 0),
    ('fig165', 'reduced-natural', 1, 'IIa', '32435.909769371054', 0),
    ('fig165', 'reduced-natural', 1, 'IIb', '63298.8145387209', 0),
    ('fig165', 'reduced-natural', 1, 'IIbShifted', '73420.93064392451', 0),
    ('fig165', 'reduced-natural', 2, 'Ia', '26051603.270063505', 0),
    ('fig165', 'reduced-natural', 2, 'Ib', '26051603.270063505', 0),
    ('fig165', 'reduced-natural', 2, 'IbShifted', '26051603.270063505', 0),
    ('fig165', 'reduced-natural', 2, 'IIa', '804047.9093973245', 0),
    ('fig165', 'reduced-natural', 2, 'IIb', '785035.6342753642', 0),
    ('fig165', 'reduced-natural', 2, 'IIbShifted', '1196484.0418245962', 0),
]


@functools.lru_cache(maxsize=None)
def _study(shape, space):
    study = StudyConfig(
        shapes=[shape], orders=[1, 2], configs=list(CONFIG_NAMES), space=space, h_divisor=H_DIVISOR
    )
    rows = run_condstudy(study)
    return {(r.k, r.config): r for r in rows}


@pytest.mark.parametrize("shape,space,k,config,cond2,degenerated", PINNED)
def test_pinned_conditioning(shape, space, k, config, cond2, degenerated):
    row = _study(shape, space)[(k, config)]
    if cond2 == "SINGULAR":
        assert not math.isfinite(row.cond2)
    else:
        expect = float(cond2)
        assert abs(row.cond2 - expect) <= (1e-9 + 1e-13 * expect) * expect
    assert row.degenerated == degenerated


@functools.lru_cache(maxsize=None)
def _basis(shape, space, k):
    polygon = catalog_polygon(shape)
    mesh = triangulate(polygon, polygon.diameter / H_DIVISOR)
    return canonical_basis(polygon, _space_kind(space, k, 1, 2), mesh=mesh)


# (k, space, shape) of the reference check: the pinned grid, and k = 4
GRID = [(k, space, shape) for shape in ("fig151", "fig165") for space in SPACES for k in (1, 2)]
GRID.append((4, "classical", "fig165"))
# (config, k, space, shape, inner projector code): every config on the grid
# with the Hermite kernels, and the other families on one config
REFERENCE_CASES = [
    pytest.param(config, k, space, shape, 3, id=f"{config}-{k}-{space}-{shape}")
    for k, space, shape in GRID
    for config in CONFIG_NAMES
] + [
    pytest.param("IIb", k, "classical", "fig165", iproj, id=f"IIb-{k}-classical-fig165-iproj{iproj}")
    for k in (2, 4)
    for iproj in (1, 2, 4, 5, 6, 7)
] + [pytest.param("IIb", 6, "classical", "fig151", 7, id="IIb-6-classical-fig151-iproj7")]


@pytest.mark.parametrize("config,k,space,shape,iproj", REFERENCE_CASES)
def test_transfer_matrix_equals_dof_applied_to_each_function(shape, space, k, config, iproj):
    basis = _basis(shape, space, k)
    dofs = _dof_set_unchecked(basis.polygon, ElementConfig(config, basis.spec, inner_projector=PolyFamily(iproj)))
    L = assemble_transfer(dofs, basis).matrix
    fns = basis.functions
    x, y, w = basis.mesh.rule_points(dofs.rule)
    interior = fns.values_at_rule(dofs.rule)

    def kernel(ij):
        return np.zeros_like(w) if ij is None else w * inner_poly(dofs.family, *ij, x, y, dofs.hull)

    expect, scale = np.empty_like(L), np.empty(len(L))
    for i, d in enumerate(dofs):
        if d.edge is not None:
            (qx, qy), wx, wy = fns.trace_components(d.edge, d.s), d.wx, d.wy
        else:
            (qx, qy), wx, wy = interior, kernel(d.kx), kernel(d.ky)
        expect[i] = d.fx * (qx @ wx) + d.fy * (qy @ wy) - d.shift
        # the row's largest sum of |summands|: a moment that cancels (an edge
        # core moment of 2e-3 from terms of order 1) rounds on this scale
        scale[i] = np.max(abs(d.fx) * (np.abs(qx) @ np.abs(wx)) + abs(d.fy) * (np.abs(qy) @ np.abs(wy))) + abs(d.shift)
    assert np.all(np.max(np.abs(L - expect), axis=1) <= 1e-14 * scale)
