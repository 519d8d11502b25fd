"""No 4n x 4n determinant is taken while a mirror is built and certified:
the algebra already gives each one.  An integral Q-isometry has det +-1, and
for isotropic halves |det w| is |det P| of the pairing, whose integral
inverse shows it is unimodular."""

import pytest

from conftest import well_becoming_sample
from torusmirror import exactlin as xl
from torusmirror.mirror import g_mirror, verify_mirror


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_takes_no_determinant_of_lambda_size(rng, monkeypatch, n):
    sizes = []
    real = xl.det

    def counted(m):
        sizes.append(xl.asmat(m).shape)
        return real(m)

    monkeypatch.setattr(xl, "det", counted)
    for _ in range(3):
        p, w = well_becoming_sample(rng, n)
        pB, cert = g_mirror(p, w)
        verify_mirror(p, pB, cert.alpha)
    monkeypatch.undo()
    assert sizes, "the counter saw no determinant at all"
    assert [s for s in sizes if s == (4 * n, 4 * n)] == []
