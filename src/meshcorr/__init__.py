"""Dense vertex correspondence between textured triangle meshes via
regularized functional maps on the Laplace-Beltrami spectrum."""

from .errors import (ArgumentError, DataError, DegenerateGeometryError,
                     DisconnectedMeshError, EmptyMeshError, EvaluationError,
                     FormatError, MeshCorrError, NumericError, ShapeError,
                     TopologyError)
from .features import (FeatureField, concat_features, load_features,
                       write_features)
from .funcmap import (FmapProblem, FmapWeights, FunctionalMap, MatchInput,
                      PartialSolution, PointMap, build_problem,
                      fmap_from_pointmap, fmap_objective,
                      multiplication_operator, project_features,
                      recover_pointmap, solve_fmap, solve_partial)
from .geodesics import (GeodesicMatrix, SemanticGroups, geodesic_matrix,
                        min_cost_assignment, semantic_distance)
from .mesh import (TriMesh, VertexAreas, cotangent_weights, normalize_mesh,
                   vertex_areas, weld_mesh)
from .meshio import load_mesh, save_mesh
from .spectral import (SpectralBasis, eigenbasis, hks, positional_encoding,
                       wks)

__version__ = "0.1.0"
