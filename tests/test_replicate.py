import warnings

import pytest

from proxident.replicate import replicate_fig2


@pytest.mark.parametrize("instances,message", [
    (0, "instances must be >= 1, got instances=0"),
    (-2, "instances must be >= 1, got instances=-2"),
    (2.5, "instances must be an integer, got 2.5"),
    (True, "instances must be an integer, got True"),
])
def test_fig2_instances_is_a_positive_integer(tmp_path, instances, message):
    # zero instances used to give NaN group means and two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            replicate_fig2(outdir=tmp_path, instances=instances)
    assert not any(tmp_path.iterdir())
