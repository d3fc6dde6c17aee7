/* capi_smoke.c — embeds libgeoalign_c from plain C99 (docs/embedding.md).
 *
 * Reproduces exactly what the `capi` gate's geoalign_cli invocation
 * computes (tools/ci.sh): one reference attribute whose disaggregation
 * matrix comes from the gate's crosswalk CSV, executed for the gate's
 * objective column, printed in the CLI's output format ("unit,value"
 * header, %.17g values, which round-trip every double). The gate diffs
 * this program's stdout against the CLI's — any numeric or formatting
 * drift fails CI.
 *
 * Build (no C++ anywhere in this translation unit):
 *   cc -std=c99 -Wall -Werror capi_smoke.c -lgeoalign_c
 */
#include <stdio.h>
#include <stdlib.h>

#include "capi/geoalign_c.h"

int main(void) {
  /* Source units s1,s2,s3; target units t1,t2 (the CLI's sorted unit
   * universes for the gate's crosswalk). CSR rows are the crosswalk's
   * per-source intersections; source aggregates are the row sums. */
  static const size_t row_ptr[] = {0, 2, 4, 5};
  static const size_t col_idx[] = {0, 1, 0, 1, 1};
  static const double values[] = {1.0, 2.0, 3.0, 1.0, 4.0};
  static const double source_aggregates[] = {3.0, 4.0, 4.0};
  static const double objective[] = {10.0, 20.0, 30.0};
  static const char* target_units[] = {"t1", "t2"};

  geoalign_csr csr;
  geoalign_reference ref;
  geoalign_plan* plan = NULL;
  double target[2];
  size_t j;
  int rc;

  if (geoalign_abi_version() != GEOALIGN_ABI_VERSION) {
    fprintf(stderr, "ABI mismatch: built %u, loaded %u\n",
            (unsigned)GEOALIGN_ABI_VERSION, (unsigned)geoalign_abi_version());
    return 1;
  }

  csr.rows = 3;
  csr.cols = 2;
  csr.row_ptr = row_ptr;
  csr.col_idx = col_idx;
  csr.values = values;

  ref.name = "population";
  ref.source_aggregates = source_aggregates;
  ref.csr = &csr; /* borrowed: zero bytes copied at compile */
  ref.coo = NULL;
  ref.coo_count = 0;
  ref.coo_rows = 0;
  ref.coo_cols = 0;

  rc = geoalign_plan_compile(&ref, 1, &plan);
  if (rc != GEOALIGN_OK) {
    fprintf(stderr, "compile failed (%d): %s\n", rc, geoalign_error_message());
    return 1;
  }
  if (geoalign_plan_num_source_units(plan) != 3 ||
      geoalign_plan_num_target_units(plan) != 2 ||
      geoalign_plan_num_references(plan) != 1) {
    fprintf(stderr, "unexpected plan shape\n");
    geoalign_plan_destroy(plan);
    return 1;
  }

  rc = geoalign_plan_execute(plan, objective, 3, target, NULL);
  if (rc != GEOALIGN_OK) {
    fprintf(stderr, "execute failed (%d): %s\n", rc, geoalign_error_message());
    geoalign_plan_destroy(plan);
    return 1;
  }

  /* Same shape as io::ToCsv on the CLI's {"unit","value"} table. */
  printf("unit,value\n");
  for (j = 0; j < 2; ++j) {
    printf("%s,%.17g\n", target_units[j], target[j]);
  }

  geoalign_plan_destroy(plan);
  return 0;
}
