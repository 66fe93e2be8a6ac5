/* Return the C heap's free memory to the operating system (see malloc.mli). */
#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

value rs_util_malloc_trim(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return Val_unit;
}
