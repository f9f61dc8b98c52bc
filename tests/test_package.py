"""The package namespace: exactly the documented names, each importable."""

import so3energy

EXPORTS = {
    '__version__', 'aberth_roots', 'all_constants', 'build_configuration', 'c_harmonic_so3',
    'c_sph', 'c_zeros', 'circle_average_quadrature', 'Configuration',
    'constant_J', 'eap_energy_upper_bound', 'eap_kernel_lower_bound',
    'EnsembleSpec', 'equal_area_partition', 'EqualAreaRegion', 'EstimateReport',
    'expected_configuration_energy', 'expected_kernel_energy', 'ExperimentConfig',
    'gamma_r', 'gamma_r_bounds_check', 'haar_rotations',
    'integrate', 'integrate_improper', 'inverse_stereographic', 'kappa', 'kappa_quadrature',
    'keyed_stream', 'load_configuration', 'log_energy', 'optimal_s', 'predicted_energy',
    'QuadratureError', 'realizable_n', 'RootFindingError', 'run_experiment',
    'sample_elliptic_zeros', 'sample_equal_area', 'sample_points', 'sample_spherical_ensemble',
    'sample_uniform', 'save_configuration', 'so3_dist_sq', 'so3_harmonic_integral',
    'sphere_kernel', 'sphere_kernel_energy', 'zeros_J_sequence',
}  # fmt: skip


def test_exports_are_the_documented_set():
    assert len(so3energy.__all__) == len(set(so3energy.__all__))
    assert set(so3energy.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(so3energy, name)
    namespace = {}
    exec("from so3energy import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
