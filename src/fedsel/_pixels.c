/* The IDX pixel decode: the compiled twin of fedsel.data._write_pixels.
 *
 * Row r of out (rows, width + 1) takes image ids[r] of images (n, width):
 * each pixel u8 becomes (double)((float)u8 / 255.0f), one correctly rounded
 * float division widened exactly, as numpy's float32 division gives it, and
 * the last column is the bias 1.0. All arrays are C-contiguous; the caller
 * checks every id is in [0, n). Rows are independent, so a caller may split
 * them into ranges and decode each on its own thread.
 */
#include <stdint.h>

FEDSEL_CLONES  /* from _isa.c */
void decode_pixels(int64_t rows, int64_t width, const uint8_t *images, const int64_t *ids,
                   double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t *restrict pixels = images + ids[r] * width;
        double *restrict row = out + r * (width + 1);
        for (int64_t j = 0; j < width; j++)
            row[j] = (double)((float)pixels[j] / 255.0f);
        row[width] = 1.0;
    }
}
