package report

import (
	"fmt"
	"math"
	"strings"
)

// svgPalette colors series bars; series beyond its length cycle. The hues
// are spaced for adjacent-bar contrast and hold up in grayscale print.
var svgPalette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
	"#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#2f4b7c", "#a05195",
}

// Fixed SVG layout constants (pixels).
const (
	svgMarginL   = 64  // y-axis labels
	svgMarginR   = 16  //
	svgMarginT   = 40  // title
	svgPlotH     = 220 // bar area height
	svgGroupGap  = 18  // gap between bar groups
	svgXLabelH   = 24  // group-label strip under the bars
	svgLegendRow = 18  // legend line height
	svgMinWidth  = 420 // room for title + legend on tiny figures
)

// svgLayout is the measured geometry of one figure's SVG rendering.
type svgLayout struct {
	f          *Figure
	barW       int
	plotW      int
	width      int
	height     int
	yMax       float64
	legendRows [][]int // series indices per legend line
}

// layoutSVG measures a figure: bar width shrinks as the bar count grows,
// the y-axis ceiling is rounded up to a "nice" number, and the legend wraps
// to the figure width.
func layoutSVG(f *Figure) svgLayout {
	l := svgLayout{f: f}
	totalBars := len(f.Groups) * len(f.Series)
	l.barW = 16
	if totalBars > 0 && 900/totalBars < l.barW {
		l.barW = 900 / totalBars
	}
	if l.barW < 4 {
		l.barW = 4
	}
	l.plotW = len(f.Groups)*len(f.Series)*l.barW + (len(f.Groups)+1)*svgGroupGap
	l.width = svgMarginL + l.plotW + svgMarginR
	if l.width < svgMinWidth {
		l.width = svgMinWidth
	}
	l.yMax = niceCeil(f.maxValue())

	// Wrap legend items at the figure width (7px per character of the
	// monospace label plus swatch and padding).
	x := svgMarginL
	var row []int
	for si, s := range f.Series {
		itemW := 16 + 7*len(s) + 14
		if len(row) > 0 && x+itemW > l.width-svgMarginR {
			l.legendRows = append(l.legendRows, row)
			row = nil
			x = svgMarginL
		}
		row = append(row, si)
		x += itemW
	}
	if len(row) > 0 {
		l.legendRows = append(l.legendRows, row)
	}
	l.height = svgMarginT + svgPlotH + svgXLabelH + len(l.legendRows)*svgLegendRow + 8
	return l
}

// niceCeil rounds a positive value up to the next 1/1.25/1.5/2/2.5/3/4/5/6/8
// × power of ten, the conventional chart-axis ceilings. Non-positive values
// get a unit axis.
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	exp := math.Floor(math.Log10(v))
	pow := math.Pow(10, exp)
	base := v / pow
	for _, c := range []float64{1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10} {
		if base <= c {
			return c * pow
		}
	}
	return 10 * pow
}

// SVGDocument renders one or more figures stacked vertically into a single
// self-contained SVG document — the multi-panel form of Figure 9. The
// output is a pure function of the figure values.
func SVGDocument(figs ...*Figure) string {
	var b strings.Builder
	layouts := make([]svgLayout, len(figs))
	width, height := svgMinWidth, 0
	for i, f := range figs {
		layouts[i] = layoutSVG(f)
		if layouts[i].width > width {
			width = layouts[i].width
		}
		height += layouts[i].height
	}
	if height == 0 {
		height = svgLegendRow
	}
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="monospace">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	y := 0
	for i := range layouts {
		fmt.Fprintf(&b, `<g transform="translate(0,%d)">`+"\n", y)
		renderSVGFigure(&b, layouts[i])
		b.WriteString("</g>\n")
		y += layouts[i].height
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// renderSVGFigure writes one measured figure into the document builder.
func renderSVGFigure(b *strings.Builder, l svgLayout) {
	f := l.f
	if err := f.Validate(); err != nil {
		fmt.Fprintf(b, `<text x="8" y="16" font-size="12" fill="#b00">%s</text>`+"\n", xmlEscape(err.Error()))
		return
	}
	plotTop, plotBot := svgMarginT, svgMarginT+svgPlotH

	fmt.Fprintf(b, `<text x="%d" y="20" font-size="13" font-weight="bold">%s</text>`+"\n",
		svgMarginL, xmlEscape(f.Title))

	// y axis: gridline + label at each quarter of the nice ceiling.
	for tick := 0; tick <= 4; tick++ {
		val := l.yMax * float64(tick) / 4
		ty := float64(plotBot) - float64(svgPlotH)*float64(tick)/4
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd" stroke-width="1"/>`+"\n",
			svgMarginL, ty, svgMarginL+l.plotW, ty)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" font-size="10" text-anchor="end" fill="#444">%s</text>`+"\n",
			svgMarginL-6, ty+3.5, fmt.Sprintf("%.4g", val))
	}
	fmt.Fprintf(b, `<text x="12" y="%d" font-size="10" fill="#444" transform="rotate(-90 12 %d)" text-anchor="middle">%s</text>`+"\n",
		plotTop+svgPlotH/2, plotTop+svgPlotH/2, xmlEscape(f.Axis))

	// Bars, one group at a time.
	x := svgMarginL + svgGroupGap
	for _, g := range f.Groups {
		for si := range f.Series {
			v, ok := g.value(si)
			if ok {
				h := 0.0
				if l.yMax > 0 {
					h = v / l.yMax * svgPlotH
				}
				fmt.Fprintf(b, `<rect x="%d" y="%.2f" width="%d" height="%.2f" fill="%s"><title>%s %s: %s</title></rect>`+"\n",
					x, float64(plotBot)-h, l.barW, h, svgPalette[si%len(svgPalette)],
					xmlEscape(g.Label), xmlEscape(f.Series[si]), formatValue(v))
			}
			x += l.barW
		}
		groupW := len(f.Series) * l.barW
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="middle" fill="#222">%s</text>`+"\n",
			x-groupW/2, plotBot+14, xmlEscape(g.Label))
		x += svgGroupGap
	}
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#222" stroke-width="1"/>`+"\n",
		svgMarginL, plotBot, svgMarginL+l.plotW, plotBot)

	// Legend: one swatch + label per series, wrapped as measured.
	ly := plotBot + svgXLabelH + 4
	for _, row := range l.legendRows {
		lx := svgMarginL
		for _, si := range row {
			fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
				lx, ly, svgPalette[si%len(svgPalette)])
			fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="#222">%s</text>`+"\n",
				lx+14, ly+9, xmlEscape(f.Series[si]))
			lx += 16 + 7*len(f.Series[si]) + 14
		}
		ly += svgLegendRow
	}
}

// xmlEscaper is built once and shared (a strings.Replacer is safe for
// concurrent use): a Replacer built per label allocates on every call.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// xmlEscape escapes the XML-special characters of labels and titles. A
// label with none of them is returned as is, without allocating.
func xmlEscape(s string) string { return xmlEscaper.Replace(s) }
