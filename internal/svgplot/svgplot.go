// Package svgplot renders report.Figure values as standalone SVG line
// charts using only the standard library. The output is intentionally
// plain — axes, ticks, gridlines, one polyline per series, a legend — but
// it turns `asetsbench -svg out/` into figures that can sit next to the
// paper's originals for visual comparison.
package svgplot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/report"
)

// palette holds the series colors (colorblind-safe Okabe-Ito subset).
var palette = []string{
	"#0072B2", // blue
	"#D55E00", // vermillion
	"#009E73", // green
	"#CC79A7", // purple
	"#E69F00", // orange
	"#56B4E9", // sky
	"#F0E442", // yellow
	"#000000", // black
}

// Render writes fig as a complete 720x480 SVG document to w.
func Render(w io.Writer, fig *report.Figure) error {
	if len(fig.X) == 0 || len(fig.Series) == 0 {
		return fmt.Errorf("svgplot: figure %q has no data", fig.ID)
	}

	const (
		width   = 720
		height  = 480
		marginL = 70
		marginR = 20
		marginT = 40
		marginB = 50
	)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	xmin, xmax := minMax(fig.X)
	var ys []float64
	for _, s := range fig.Series {
		ys = append(ys, s.Y...)
	}
	ymin, ymax := minMax(ys)

	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// Breathing room on the y-axis.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	px := func(x float64) float64 { return float64(marginL) + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 {
		return float64(marginT) + (1-(y-ymin)/(ymax-ymin))*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" font-weight="bold">%s — %s</text>`+"\n",
		marginL, escape(fig.ID), escape(fig.Title))

	// Plot frame.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)

	// X ticks at each data point (the sweeps have at most ~10 points).
	for _, x := range fig.X {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ccc"/>`+"\n",
			px(x), float64(marginT), px(x), float64(marginT)+plotH)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%g</text>`+"\n",
			px(x), float64(marginT)+plotH+16, x)
	}
	// Y ticks: five evenly spaced.
	for i := 0; i <= 4; i++ {
		ty := ymin + (ymax-ymin)*float64(i)/4
		yPix := float64(marginT) + (1-(ty-ymin)/(ymax-ymin))*plotH
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eee"/>`+"\n",
			marginL, yPix, float64(marginL)+plotW, yPix)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, yPix+4, compact(ty))
	}

	// Axis labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">%s</text>`+"\n",
		float64(marginL)+plotW/2, height-10, escape(fig.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%.1f" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, escape(fig.YLabel))

	// Series polylines + point markers.
	for si, s := range fig.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i, y := range s.Y {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(fig.X[i]), py(y)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for i, y := range s.Y {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				px(fig.X[i]), py(y), color)
		}
	}

	// Legend (top-right inside the frame).
	for si, s := range fig.Series {
		color := palette[si%len(palette)]
		lx := float64(marginL) + plotW - 150
		ly := float64(marginT) + 16 + float64(si)*18
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="3"/>`+"\n",
			lx, ly-4, lx+22, ly-4, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="12">%s</text>`+"\n",
			lx+28, ly, escape(s.Name))
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func minMax(vals []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func compact(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
